"""Prometheus exposition exporter for repro metric state.

Usage::

    # Re-render the fleet metrics a traced run embedded in its
    # Chrome-trace document (otherData.metric_records) as one merged
    # Prometheus scrape:
    python -m repro.tools.metrics_export --trace trace.json

    # Validate the output against the exposition-format checker too:
    python -m repro.tools.metrics_export --trace trace.json --check

    # Write to a file instead of stdout:
    python -m repro.tools.metrics_export --trace t.json --out metrics.prom

The trace path consumes the ``metric_records`` block that
:func:`~repro.observability.write_chrome_trace` writes when given
``metric_records=``: one
:meth:`~repro.observability.MetricsRegistry.export_records` dump per
process (e.g. a :class:`~repro.service.ShardedSession`'s
``metrics_records()`` plus the front end's registry), full instrument
state including quantile-histogram buckets.  Counters sum, gauges add
and histograms merge bucket-by-bucket before rendering, so the p50/p95/
p99 summary quantiles in the scrape are honest fleet-wide percentiles.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..observability.metrics import merge_metric_records
from ..observability.prometheus import (
    render_metric_records,
    validate_exposition_text,
)


def records_from_trace(path: str) -> List[List[dict]]:
    """The per-process metric records embedded in a trace document.

    Falls back to an empty list (not an error) when the trace was
    written without metrics — the caller decides whether that is fatal.
    """
    with open(path) as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ValueError(f"{path}: not a trace document")
    other = document.get("otherData") or {}
    records = other.get("metric_records") or []
    if not isinstance(records, list):
        raise ValueError(f"{path}: otherData.metric_records is not a list")
    return records


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.metrics_export",
        description="Render repro metric state as a Prometheus scrape.",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        required=True,
        help="Chrome-trace JSON whose otherData.metric_records block "
        "(one record list per process) is merged into one scrape",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="write the exposition text here (default: stdout)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="run the exposition-format checker on the output; any "
        "problem is a non-zero exit",
    )
    args = parser.parse_args(argv)

    try:
        records = records_from_trace(args.trace)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not records:
        print(
            f"error: {args.trace} carries no metric_records "
            "(was it written with write_chrome_trace(metric_records=...)?)",
            file=sys.stderr,
        )
        return 1
    merged = merge_metric_records(records)

    text = render_metric_records(merged.export_records())
    if args.check:
        problems = validate_exposition_text(text)
        if problems:
            for problem in problems:
                print(f"exposition violation: {problem}", file=sys.stderr)
            return 1
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(
            f"wrote {len(text.splitlines())} exposition lines to {args.out}"
        )
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
