//! Deterministic CNF instance generators shared by tests and benchmarks.
//!
//! The perf harness (`satbench`) and the differential/unit suites must agree
//! on what e.g. "PHP(8,7)" means — clause order included, since the engine's
//! search is sensitive to it — so the generators live here, once.

use crate::cnf::{CnfFormula, Lit, Var};
use crate::rng::SmallRng;

/// Pigeonhole principle PHP(holes + 1, holes): `holes + 1` pigeons into
/// `holes` holes — unsatisfiable, dense, resolution-hard.
pub fn pigeonhole(holes: usize) -> CnfFormula {
    let pigeons = holes + 1;
    let mut cnf = CnfFormula::new(pigeons * holes);
    let var = |p: usize, h: usize| Lit::positive(Var::new((p * holes + h) as u32));
    for p in 0..pigeons {
        cnf.add_clause(&(0..holes).map(|h| var(p, h)).collect::<Vec<_>>());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                cnf.add_clause(&[!var(p1, h), !var(p2, h)]);
            }
        }
    }
    cnf
}

/// Seeded uniform random 3-SAT: `num_clauses` clauses of three distinct
/// variables each.  At `num_clauses / num_vars ≈ 4.26` the instances sit at
/// the satisfiability phase transition.
pub fn random_3sat(num_vars: usize, num_clauses: usize, seed: u64) -> CnfFormula {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut cnf = CnfFormula::new(num_vars);
    for _ in 0..num_clauses {
        let mut clause: Vec<Lit> = Vec::with_capacity(3);
        while clause.len() < 3 {
            let v = rng.gen_range(0..num_vars) as u32;
            let l = Lit::new(Var::new(v), rng.gen_bool(0.5));
            if !clause.contains(&l) && !clause.contains(&!l) {
                clause.push(l);
            }
        }
        cnf.add_clause(&clause);
    }
    cnf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pigeonhole_shape() {
        let cnf = pigeonhole(3);
        assert_eq!(cnf.num_vars(), 12);
        // 4 pigeon clauses + 3 * C(4,2) exclusivity clauses.
        assert_eq!(cnf.num_clauses(), 4 + 3 * 6);
    }

    #[test]
    fn random_3sat_is_deterministic() {
        let a = random_3sat(30, 120, 7);
        let b = random_3sat(30, 120, 7);
        assert_eq!(a, b);
        assert_eq!(a.num_clauses(), 120);
        assert!(a.clauses().all(|c| c.len() == 3));
    }
}
