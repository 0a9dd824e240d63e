//! The benchmark's own exact optimality check.
//!
//! Written apart from `steady_lp::certify`: it reads only the public
//! `LpProblem` accessors and decides, in exact `Ratio` arithmetic, whether a
//! primal/dual pair proves the reported objective optimal for
//! `max|min c·x  s.t.  A x (≤,=,≥) b,  x ≥ 0`:
//!
//! 1. primal feasibility — every `x_j ≥ 0` and every row holds;
//! 2. dual signs — for a maximization, `y_i ≥ 0` on `≤` rows and `y_i ≤ 0`
//!    on `≥` rows (mirrored for a minimization), free on `=` rows;
//! 3. dual columns — `(Aᵀy)_j ≥ c_j` for a maximization (`≤` for a
//!    minimization);
//! 4. zero duality gap — `c·x = b·y`, and the reported objective equals
//!    `c·x`.
//!
//! Weak duality makes 1–4 together a proof of optimality.

use steady_lp::{LpProblem, Objective, Sense};
use steady_rational::Ratio;

/// Which part of the optimality proof failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// The value or dual vector has the wrong length.
    Shape,
    /// A primal variable is negative.
    PrimalBound,
    /// A constraint row does not hold at the primal point.
    PrimalRow,
    /// A dual value has the wrong sign for its row.
    DualSign,
    /// A dual column constraint `(Aᵀy)_j` vs `c_j` fails.
    DualColumn,
    /// Primal and dual objectives differ.
    Gap,
    /// The reported objective differs from `c·x`.
    Objective,
}

/// A failed check: what failed and a readable detail.
#[derive(Debug, Clone)]
pub struct CheckError {
    /// The failed part of the proof.
    pub violation: Violation,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.violation, self.detail)
    }
}

fn fail<T>(violation: Violation, detail: String) -> Result<T, CheckError> {
    Err(CheckError { violation, detail })
}

/// Checks that `values` / `duals` prove `objective` optimal for `lp`.
pub fn check_optimal(
    lp: &LpProblem,
    values: &[Ratio],
    duals: &[Ratio],
    objective: &Ratio,
) -> Result<(), CheckError> {
    let rows = lp.constraints();
    if values.len() != lp.num_vars() || duals.len() != rows.len() {
        return fail(
            Violation::Shape,
            format!(
                "{} values for {} variables, {} duals for {} rows",
                values.len(),
                lp.num_vars(),
                duals.len(),
                rows.len()
            ),
        );
    }
    if let Some(j) = values.iter().position(Ratio::is_negative) {
        return fail(Violation::PrimalBound, format!("x[{j}] = {} < 0", values[j]));
    }
    let maximize = matches!(lp.direction(), Objective::Maximize);
    let mut column = vec![Ratio::zero(); values.len()];
    let mut dual_objective = Ratio::zero();
    for (row, y) in rows.iter().zip(duals) {
        let mut activity = Ratio::zero();
        for (var, coeff) in row.expr.terms() {
            activity += coeff * &values[var.index()];
            if !y.is_zero() {
                column[var.index()] += coeff * y;
            }
        }
        let holds = match row.sense {
            Sense::Le => activity <= row.rhs,
            Sense::Ge => activity >= row.rhs,
            Sense::Eq => activity == row.rhs,
        };
        if !holds {
            return fail(
                Violation::PrimalRow,
                format!("row '{}': {} {:?} {} fails", row.name, activity, row.sense, row.rhs),
            );
        }
        let sign_ok = match (row.sense, maximize) {
            (Sense::Eq, _) => true,
            (Sense::Le, true) | (Sense::Ge, false) => !y.is_negative(),
            (Sense::Ge, true) | (Sense::Le, false) => !y.is_positive(),
        };
        if !sign_ok {
            return fail(
                Violation::DualSign,
                format!("row '{}' ({:?}) has dual {y}", row.name, row.sense),
            );
        }
        dual_objective += &row.rhs * y;
    }
    let costs = lp.objective_vector();
    for (j, (sum, c)) in column.iter().zip(costs).enumerate() {
        let ok = if maximize { sum >= c } else { sum <= c };
        if !ok {
            return fail(Violation::DualColumn, format!("column {j}: (Aᵀy) = {sum} vs c = {c}"));
        }
    }
    let primal_objective: Ratio = costs.iter().zip(values).map(|(c, x)| c * x).sum();
    if primal_objective != dual_objective {
        return fail(
            Violation::Gap,
            format!("c·x = {primal_objective} but b·y = {dual_objective}"),
        );
    }
    if *objective != primal_objective {
        return fail(
            Violation::Objective,
            format!("reported {objective} but c·x = {primal_objective}"),
        );
    }
    Ok(())
}

/// Shows the check bites: solves a small LP exactly, accepts its optimum,
/// and rejects a nudged primal value, a flipped dual sign and a nonzero gap.
/// Runs at the start of every benchmark run; a failure aborts the run.
pub fn self_test() -> Result<(), String> {
    use steady_lp::LinearExpr;
    use steady_rational::rat;

    // maximize x + y  s.t.  2x + y <= 1,  x + 3y <= 1,  x - y >= -1,  x, y >= 0
    let mut lp = LpProblem::maximize();
    let x = lp.add_var("x");
    let y = lp.add_var("y");
    lp.set_objective(x, rat(1, 1));
    lp.set_objective(y, rat(1, 1));
    let mut c1 = LinearExpr::new();
    c1.add_term(x, rat(2, 1)).add_term(y, rat(1, 1));
    lp.add_constraint("c1", c1, Sense::Le, rat(1, 1));
    let mut c2 = LinearExpr::new();
    c2.add_term(x, rat(1, 1)).add_term(y, rat(3, 1));
    lp.add_constraint("c2", c2, Sense::Le, rat(1, 1));
    let mut c3 = LinearExpr::new();
    c3.add_term(x, rat(1, 1)).add_term(y, rat(-1, 1));
    lp.add_constraint("c3", c3, Sense::Ge, rat(-1, 1));
    let sol = steady_lp::solve_exact_auto(&lp).map_err(|e| format!("self-test LP: {e}"))?;
    check_optimal(&lp, &sol.values, &sol.duals, &sol.objective)
        .map_err(|e| format!("self-test: the exact optimum was rejected: {e}"))?;

    let expect = |what: &str, want: Violation, got: Result<(), CheckError>| match got {
        Err(e) if e.violation == want => Ok(()),
        Err(e) => Err(format!("self-test '{what}': expected {want:?}, got {e}")),
        Ok(()) => Err(format!("self-test '{what}': the check accepted it")),
    };
    let mut nudged = sol.values.clone();
    nudged[0] += rat(1, 1_000_000_007);
    expect(
        "nudged primal",
        Violation::PrimalRow,
        check_optimal(&lp, &nudged, &sol.duals, &sol.objective),
    )?;
    let mut flipped = sol.duals.clone();
    let i = flipped.iter().position(|d| !d.is_zero()).ok_or("self-test: all duals are 0")?;
    flipped[i] = -&flipped[i];
    expect(
        "flipped dual sign",
        Violation::DualSign,
        check_optimal(&lp, &sol.values, &flipped, &sol.objective),
    )?;
    // Scaling a feasible dual up keeps it feasible here (c > 0, A ≥ 0 on
    // the binding rows) but moves b·y off c·x.
    let widened: Vec<Ratio> = sol.duals.iter().map(|d| d * &rat(1_000_001, 1_000_000)).collect();
    expect("nonzero gap", Violation::Gap, check_optimal(&lp, &sol.values, &widened, &sol.objective))
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_test_passes() {
        super::self_test().unwrap();
    }
}
