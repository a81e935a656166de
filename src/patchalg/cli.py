"""Configuration loading, suite execution and JSON reporting.

Exit codes: 0 all cases passed, 1 at least one case failed, 2 the
configuration itself was rejected.  Reports are deterministic for a fixed
config and seed up to the per-case timing fields.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
from dataclasses import dataclass, fields

from . import __version__
from .analytic import Configuration
from .kummer import ScenarioError, check_scenario
from .scalars import FieldDescriptor, FieldError
from .suites import SUITE_NAMES, run_suites

__all__ = ["ConfigError", "RunConfig", "run", "main"]

SCHEMA_VERSION = 1
PROFILE_LINES = 30  # functions listed by --profile
SCENARIO_DEFAULTS = {"i": 2, "j": 1, "k": 3, "q": 2, "qprime": 2}


class ConfigError(ValueError):
    pass


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_list_of(v, types) -> bool:
    return isinstance(v, list) and all(isinstance(x, types) and not isinstance(x, bool) for x in v)


# key: (accepts the value, what the value must be); a key whose default is
# None also takes None, which means the default
CONFIG_TYPES = {
    "field": (lambda v: isinstance(v, dict) and set(v) <= {"kind", "m"} and _is_int(v.get("m", 0)),
              'an object with the keys "kind" and an integer "m"'),
    "centers": (lambda v: _is_list_of(v, (str, int, float)), "an array of strings or numbers"),
    "scenario": (lambda v: isinstance(v, dict), "an object"),
    "seed": (_is_int, "an integer"),
    "suites": (lambda v: _is_list_of(v, str), "an array of strings"),
    "output": (lambda v: isinstance(v, str), "a string"),
    "tamper_b": (lambda v: isinstance(v, bool), "true or false"),
    "verbose": (lambda v: isinstance(v, bool), "true or false"),
}


@dataclass
class RunConfig:
    field: dict = None
    centers: list = None
    precision: int = 16
    scenario: dict = None
    seed: int = 42
    suites: list = None
    output: str = None
    tamper_b: bool = False
    verbose: bool = False

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name in CONFIG_TYPES and not (v is None and f.default is None):
                ok, what = CONFIG_TYPES[f.name]
                if not ok(v):
                    raise ConfigError(f"{f.name} must be {what}, not {v!r}")
        if self.field is None:
            self.field = {"kind": "rationals"}
        if self.centers is None:
            self.centers = ["0", "1", "2"]
        if self.scenario is None:
            self.scenario = {}
        self.scenario = {**SCENARIO_DEFAULTS, **self.scenario}
        if not self.suites:
            self.suites = ["all"]

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ConfigError("the config must be a JSON object")
        extra = set(d) - {f.name for f in fields(RunConfig)}
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        return RunConfig(**d)

    def resolve(self) -> tuple:
        """Validate and build the Configuration; ConfigError on any problem."""
        try:
            fd = FieldDescriptor(self.field.get("kind", "rationals"), self.field.get("m", 0))
        except FieldError as exc:
            raise ConfigError(f"bad field descriptor: {exc}") from exc
        if not isinstance(self.precision, int) or self.precision < 4:
            raise ConfigError("precision must be an integer >= 4")
        if len(self.centers) < 2:
            raise ConfigError("need at least two centers")
        if len(set(self.centers)) != len(self.centers):
            raise ConfigError("centers must be distinct")
        try:
            cfg = Configuration(fd, [str(c) for c in self.centers], self.precision)
        except (ValueError, FieldError) as exc:
            raise ConfigError(str(exc)) from exc
        names = list(self.suites)
        if "all" in names:
            names = list(SUITE_NAMES)
        for n in names:
            if n not in SUITE_NAMES:
                raise ConfigError(f"unknown suite {n!r} (have {', '.join(SUITE_NAMES)})")
        extra = set(self.scenario) - set(SCENARIO_DEFAULTS)
        if extra:
            raise ConfigError(f"unknown scenario keys: {sorted(extra)}")
        try:
            check_scenario(cfg, **self.scenario)
        except ScenarioError as exc:
            raise ConfigError(f"bad scenario: {exc}") from exc
        return cfg, names

    def echo(self) -> dict:
        return {
            "field": self.field,
            "centers": [str(c) for c in self.centers],
            "precision": self.precision,
            "scenario": self.scenario,
            "seed": self.seed,
            "suites": self.suites,
            "tamper_b": self.tamper_b,
        }


def run(rc: RunConfig) -> tuple:
    """Execute the requested suites; returns (report dict, exit code)."""
    cfg, names = rc.resolve()
    results = run_suites(cfg, rc.scenario, rc.seed, names,
                         tamper_b=rc.tamper_b, verbose=rc.verbose)
    results.sort(key=lambda r: (r.suite, r.case_id))
    summary = {"pass": 0, "fail": 0, "skip": 0}
    for r in results:
        summary[r.status] += 1
    report = {
        "schema_version": SCHEMA_VERSION,
        "artifact": {"name": "patchalg", "version": __version__},
        "config": rc.echo(),
        "records": [r.to_dict() for r in results],
        "summary": summary,
    }
    code = 0 if summary["fail"] == 0 else 1
    return report, code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="patchalg",
        description="run the exact-arithmetic verification suites and emit a JSON report",
    )
    ap.add_argument("--config", help="JSON config file (keys mirror the run configuration)")
    ap.add_argument("--suite", action="append", default=None,
                    help=f"suite to run, repeatable; one of {', '.join(SUITE_NAMES)} or all")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--precision", type=int, default=None)
    ap.add_argument("--output", default=None, help="report path (stdout when omitted)")
    ap.add_argument("--tamper-b", action="store_true",
                    help="debug: replace b by b^2 in the certificate suite")
    ap.add_argument("--verbose", action="store_true")
    ap.add_argument("--profile", action="store_true",
                    help="print a cProfile summary of the run (top functions by "
                         "cumulative time) to stderr; the report is unchanged")
    args = ap.parse_args(argv)

    try:
        data = {}
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        rc = RunConfig.from_dict(data)
        if args.suite:
            rc.suites = args.suite
        if args.seed is not None:
            rc.seed = args.seed
        if args.precision is not None:
            rc.precision = args.precision
        if args.output is not None:
            rc.output = args.output
        if args.tamper_b:
            rc.tamper_b = True
        if args.verbose:
            rc.verbose = True
        # reject the config, then an unwritable output path, before any suite runs
        rc.resolve()
        if rc.output:
            open(rc.output, "a", encoding="utf-8").close()
        if args.profile:
            prof = cProfile.Profile()
            report, code = prof.runcall(run, rc)
            pstats.Stats(prof, stream=sys.stderr).sort_stats("cumulative").print_stats(PROFILE_LINES)
        else:
            report, code = run(rc)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    text = json.dumps(report, indent=2, sort_keys=True)
    if rc.output:
        with open(rc.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"report written to {rc.output} "
              f"({report['summary']['pass']} pass, {report['summary']['fail']} fail)",
              file=sys.stderr)
    else:
        print(text)
    return 0 if report["summary"]["fail"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
