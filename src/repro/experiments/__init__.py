"""Experiment harness: regenerate every table and figure of the paper.

| Experiment | Paper artifact | Entry point |
|------------|----------------|-------------|
| fig2       | Fig. 2 disease pie           | :func:`run_fig2` |
| fig3       | Fig. 3 drugs per disease     | :func:`run_fig3` |
| table1     | Table I chronic suggestions  | :func:`run_table1` |
| table2     | Table II embedding ablation  | :func:`run_table2` |
| table3     | Table III SS@k               | :func:`run_table3` |
| fig7       | Fig. 7 similarity heat maps  | :func:`run_fig7` |
| fig8       | Fig. 8 explanation subgraphs | :func:`run_fig8` |
| table4     | Table IV MIMIC validation    | :func:`run_table4` |
| fig9       | Fig. 9 rank-movement cases   | :func:`run_fig9` |

Run from the command line through the pipeline CLI, cached and parallel
(the fit/score/metric phases of every experiment are registered as
:mod:`repro.pipeline` stages at import time; shared work like the
DSSDDI(SGCN) fit is computed once and reused across
table1/table3/fig7/fig8/fig9)::

    repro run table1 --scale small
    repro run all --jobs 4
"""

from .common import (
    ChronicExperimentData,
    Scale,
    TABLE1_METHODS,
    dssddi_config,
    format_table,
    load_chronic,
    run_methods,
)
from .table1 import Table1Result, run_table1
from .table2 import Table2Result, run_table2
from .table3 import Table3Result, run_table3
from .table4 import TABLE4_METHODS, Table4Result, run_table4
from .figures import Fig2Result, Fig3Result, Fig7Result, run_fig2, run_fig3, run_fig7
from .cases import CaseStudy, Fig8Result, Fig9Result, run_fig8, run_fig9

__all__ = [
    "Scale",
    "ChronicExperimentData",
    "TABLE1_METHODS",
    "TABLE4_METHODS",
    "load_chronic",
    "run_methods",
    "dssddi_config",
    "format_table",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_fig2",
    "run_fig3",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "Table1Result",
    "Table2Result",
    "Table3Result",
    "Table4Result",
    "Fig2Result",
    "Fig3Result",
    "Fig7Result",
    "Fig8Result",
    "Fig9Result",
    "CaseStudy",
]
