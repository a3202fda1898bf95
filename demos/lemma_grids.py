"""
Brute-force lemma verification over exhaustive grids
====================================================

Each helper inequality behind the product bounds is checked on every
instance of a finite parameter box: no sampling, no floats.  A report
counts instances, instances whose hypotheses held, and counterexamples;
any counterexample is a bug in the statement or the code.

CLI equivalent:
    harmonia lemmas check --lemma hb1 --k-max 2 --r-max 3 --m-max 12 --coef-max 6
"""

from harmonia.lemmas import (
    scan_cook_grid,
    scan_divisibility_grid,
    scan_hb_grid,
    scan_pre_cook_grid,
)


def show(report):
    print(f"{report.lemma:<8} instances={report.instances:<8} "
          f"held={report.hypotheses_held:<7} "
          f"counterexamples={len(report.counterexamples)} "
          f"equalities={report.conclusion_equalities}")
    assert report.clean


# the two recursive inequalities on the acceptance box: k<=2, R<=3, m<=12,
# coefficients<=6, 3,348,972 instances each, under a second on two cores
show(scan_hb_grid("hb1", 2, 3, 12, 6))
show(scan_hb_grid("hb2", 2, 3, 12, 6))

# spreading inequalities for rational sequences
show(scan_cook_grid(2))
show(scan_pre_cook_grid())

# divisibility structure over every unitary split of the anarchy pair
show(scan_divisibility_grid((64, 173369889)))
