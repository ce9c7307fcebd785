#!/usr/bin/env python3
"""Assert that a `flowc reproduce` report holds all eleven studies.

Each study must be an object with the paper's claim (`paper`) and its
numbers (`results`).  The numbers themselves are not checked here: at tiny
scale several studies are degenerate (one-class label sets), which the
report's majority-class baselines make visible.

Usage:  check_reproduction.py <reproduction.json>
"""

import json
import sys

STUDIES = [
    "space_counts",
    "fig1_qor_distribution",
    "fig4_optimizers_area",
    "fig5_optimizers_delay",
    "fig6_kernel_size",
    "fig7_activations",
    "fig8_flow_quality",
    "tab2_selection",
    "ablation_num_classes",
    "ablation_retrain_interval",
    "ablation_selection_confidence",
]


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    with open(sys.argv[1]) as handle:
        studies = json.load(handle)["studies"]
    failures = [
        key
        for key in STUDIES
        if not isinstance(studies.get(key), dict)
        or not studies[key].get("paper")
        or studies[key].get("results") is None
    ]
    extra = sorted(set(studies) - set(STUDIES))
    if failures or extra:
        print(f"missing or incomplete studies: {failures}; unexpected: {extra}")
        return 1
    print(f"all {len(STUDIES)} studies reported")
    return 0


if __name__ == "__main__":
    sys.exit(main())
