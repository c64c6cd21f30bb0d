//! Reading and writing CNF formulas in the DIMACS format, and DRAT proofs in
//! their text and binary encodings.

use crate::cnf::{CnfFormula, Lit};
use std::fmt;
use std::io::{self, BufRead, Write};
use velv_proof::drat::{self, ParseDratError};
use velv_proof::Proof;

/// An error produced while parsing a DIMACS file.
#[derive(Debug)]
pub enum ParseDimacsError {
    /// An I/O error from the underlying reader.
    Io(io::Error),
    /// The problem line or a clause was malformed.
    Malformed(String),
}

impl fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseDimacsError::Io(e) => write!(f, "i/o error while reading DIMACS: {e}"),
            ParseDimacsError::Malformed(msg) => write!(f, "malformed DIMACS input: {msg}"),
        }
    }
}

impl std::error::Error for ParseDimacsError {}

impl From<io::Error> for ParseDimacsError {
    fn from(e: io::Error) -> Self {
        ParseDimacsError::Io(e)
    }
}

/// Parses a DIMACS CNF problem from `reader`.
///
/// # Errors
///
/// Returns [`ParseDimacsError`] if the input is not a well-formed DIMACS
/// problem or the reader fails.
pub fn read_dimacs<R: BufRead>(mut reader: R) -> Result<CnfFormula, ParseDimacsError> {
    let mut cnf = CnfFormula::new(0);
    let mut declared_vars = 0usize;
    // One line buffer and one clause buffer for the whole input: a clause is
    // copied into the formula's flat literal buffer as its `0` is read.
    let mut buf = String::new();
    let mut current: Vec<Lit> = Vec::new();
    let mut saw_problem_line = false;
    loop {
        buf.clear();
        if reader.read_line(&mut buf)? == 0 {
            break;
        }
        let line = buf.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if line.starts_with('%') {
            // SATLIB end-of-file marker ("%" followed by a stray "0" line):
            // everything after it is padding, not clauses.
            break;
        }
        if let Some(rest) = line.strip_prefix('p') {
            let mut parts = rest.split_whitespace();
            let format = parts.next().unwrap_or("");
            if format != "cnf" {
                return Err(ParseDimacsError::Malformed(format!(
                    "unsupported problem format `{format}`"
                )));
            }
            declared_vars = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| ParseDimacsError::Malformed("missing variable count".into()))?;
            saw_problem_line = true;
            continue;
        }
        for token in line.split_whitespace() {
            let value: i64 = token
                .parse()
                .map_err(|_| ParseDimacsError::Malformed(format!("invalid literal `{token}`")))?;
            if value == 0 {
                cnf.add_clause(&current);
                current.clear();
            } else {
                current.push(Lit::from_dimacs(value));
            }
        }
    }
    if !saw_problem_line {
        return Err(ParseDimacsError::Malformed("missing problem line".into()));
    }
    if !current.is_empty() {
        cnf.add_clause(&current);
    }
    cnf.ensure_vars(declared_vars);
    Ok(cnf)
}

/// Parses a DIMACS CNF problem from a string.
///
/// # Errors
///
/// See [`read_dimacs`].
pub fn parse_dimacs(input: &str) -> Result<CnfFormula, ParseDimacsError> {
    read_dimacs(input.as_bytes())
}

/// Writes `cnf` in DIMACS format.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_dimacs<W: Write>(mut writer: W, cnf: &CnfFormula) -> io::Result<()> {
    writeln!(writer, "p cnf {} {}", cnf.num_vars(), cnf.num_clauses())?;
    for clause in cnf.clauses() {
        for lit in clause {
            write!(writer, "{} ", lit.to_dimacs())?;
        }
        writeln!(writer, "0")?;
    }
    Ok(())
}

/// Renders `cnf` as a DIMACS string.
pub fn to_dimacs_string(cnf: &CnfFormula) -> String {
    let mut out = Vec::new();
    write_dimacs(&mut out, cnf).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("DIMACS output is ASCII")
}

/// DIMACS-codes one clause as the `i32` literals the `velv_proof` checker
/// consumes.
pub fn clause_to_dimacs_i32(clause: &[Lit]) -> Vec<i32> {
    clause.iter().map(|l| l.to_dimacs() as i32).collect()
}

/// DIMACS-codes every clause of `cnf` for the `velv_proof` checker.
pub fn cnf_to_dimacs_i32(cnf: &CnfFormula) -> Vec<Vec<i32>> {
    cnf.clauses().map(clause_to_dimacs_i32).collect()
}

impl From<ParseDratError> for ParseDimacsError {
    fn from(e: ParseDratError) -> Self {
        match e {
            ParseDratError::Io(e) => ParseDimacsError::Io(e),
            ParseDratError::Malformed(msg) => ParseDimacsError::Malformed(msg),
        }
    }
}

/// Writes a DRAT proof in the text format (`1 -2 0`, deletions prefixed with
/// `d`), as produced by proof-logging solve calls (see [`crate::proof`]).
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_drat_text<W: Write>(writer: W, proof: &Proof) -> io::Result<()> {
    drat::write_text(writer, proof)
}

/// Renders a DRAT proof as a text string.
pub fn to_drat_text_string(proof: &Proof) -> String {
    drat::to_text_string(proof)
}

/// Parses a text DRAT proof.
///
/// # Errors
///
/// Returns [`ParseDimacsError::Malformed`] on malformed input.
pub fn parse_drat_text(input: &str) -> Result<Proof, ParseDimacsError> {
    Ok(drat::parse_text(input)?)
}

/// Writes a DRAT proof in the binary format (step tags `a`/`d`, literals as
/// variable-length 7-bit integers `2·|lit| + (lit < 0)`).
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_drat_binary<W: Write>(writer: W, proof: &Proof) -> io::Result<()> {
    drat::write_binary(writer, proof)
}

/// Serializes a DRAT proof in the binary format.
pub fn to_drat_binary(proof: &Proof) -> Vec<u8> {
    drat::to_binary(proof)
}

/// Parses a binary DRAT proof.
///
/// # Errors
///
/// Returns [`ParseDimacsError::Malformed`] on truncated or malformed input.
pub fn parse_drat_binary(input: &[u8]) -> Result<Proof, ParseDimacsError> {
    Ok(drat::parse_binary(input)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Var;

    #[test]
    fn parse_simple_problem() {
        let input = "c a comment\np cnf 3 2\n1 -2 0\n2 3 0\n";
        let cnf = parse_dimacs(input).unwrap();
        assert_eq!(cnf.num_vars(), 3);
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.clause(0).len(), 2);
    }

    #[test]
    fn roundtrip() {
        let mut cnf = CnfFormula::new(3);
        let a = Lit::positive(Var::new(0));
        let b = Lit::negative(Var::new(1));
        let c = Lit::positive(Var::new(2));
        cnf.add_clause(&[a, b]);
        cnf.add_clause(&[c]);
        let text = to_dimacs_string(&cnf);
        let parsed = parse_dimacs(&text).unwrap();
        assert_eq!(parsed.num_vars(), cnf.num_vars());
        assert_eq!(parsed.num_clauses(), cnf.num_clauses());
        assert!(parsed.clauses().eq(cnf.clauses()));
    }

    #[test]
    fn write_then_parse_reproduces_the_flat_formula() {
        // Unsorted, duplicated and tautological input, an empty clause and
        // declared variables no clause mentions: the written text parses
        // back to the identical formula, literal buffer and offsets alike.
        let mut rng = crate::rng::SmallRng::seed_from_u64(26);
        let mut cnf = CnfFormula::new(40);
        for _ in 0..300 {
            let len = rng.gen_range(0..7);
            let clause: Vec<Lit> = (0..len)
                .map(|_| Lit::new(Var::new(rng.gen_range(0..30) as u32), rng.gen_bool(0.5)))
                .collect();
            cnf.add_clause(&clause);
        }
        cnf.add_clause(&[]);
        assert!(cnf.num_clauses() > 100 && cnf.num_clauses() < 301);
        let parsed = parse_dimacs(&to_dimacs_string(&cnf)).unwrap();
        assert_eq!(parsed, cnf);
        assert_eq!(to_dimacs_string(&parsed), to_dimacs_string(&cnf));
    }

    #[test]
    fn rejects_missing_problem_line() {
        assert!(parse_dimacs("1 2 0\n").is_err());
    }

    #[test]
    fn rejects_bad_format() {
        assert!(parse_dimacs("p sat 3 2\n1 0\n").is_err());
        assert!(parse_dimacs("p cnf x y\n").is_err());
        assert!(parse_dimacs("p cnf 2 1\n1 junk 0\n").is_err());
    }

    #[test]
    fn clause_spanning_lines_and_trailing_clause() {
        let input = "p cnf 3 2\n1 2\n3 0\n-1 -2 -3\n";
        let cnf = parse_dimacs(input).unwrap();
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.clause(0).len(), 3);
        assert_eq!(cnf.clause(1).len(), 3);
    }

    #[test]
    fn tolerates_comments_blank_lines_and_trailing_whitespace() {
        // Comments before, between and after clauses; blank lines; trailing
        // spaces and tabs; CRLF endings; '%' end-of-file markers (SATLIB).
        let input = "c header comment\n\nc another\np cnf 3 2   \r\n  1 -2 0\t\n\n\
                     c between clauses\n   2 3 0   \n%\n0\n\n";
        let cnf = parse_dimacs(input).unwrap();
        assert_eq!(cnf.num_vars(), 3);
        // The '%' marker ends the input: the stray "0" line after it must
        // not be parsed as an (unsatisfiable) empty clause.
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.clause(0), [Lit::from_dimacs(1), Lit::from_dimacs(-2)]);
    }

    fn sample_proof() -> Proof {
        let mut proof = Proof::new();
        proof.add(vec![3, -1]);
        proof.delete(vec![2, 3]);
        proof.add(vec![-2]);
        proof.add(vec![]);
        proof
    }

    #[test]
    fn drat_text_roundtrip() {
        let proof = sample_proof();
        let text = to_drat_text_string(&proof);
        assert!(text.contains("3 -1 0"));
        assert!(text.contains("d 2 3 0"));
        let parsed = parse_drat_text(&text).unwrap();
        assert_eq!(parsed, proof);
    }

    #[test]
    fn drat_binary_roundtrip() {
        let proof = sample_proof();
        let bytes = to_drat_binary(&proof);
        let parsed = parse_drat_binary(&bytes).unwrap();
        assert_eq!(parsed, proof);
    }

    #[test]
    fn drat_text_and_binary_agree() {
        let proof = sample_proof();
        let via_text = parse_drat_text(&to_drat_text_string(&proof)).unwrap();
        let via_binary = parse_drat_binary(&to_drat_binary(&proof)).unwrap();
        assert_eq!(via_text, via_binary);
    }

    #[test]
    fn drat_parse_errors_surface_as_dimacs_errors() {
        assert!(parse_drat_text("1 2\n").is_err(), "unterminated step");
        assert!(parse_drat_binary(&[b'q', 0]).is_err(), "bad step tag");
    }

    #[test]
    fn recorded_engine_proof_roundtrips_through_both_encodings() {
        use crate::cdcl::CdclSolver;
        use crate::generators::pigeonhole;
        use crate::solver::Budget;
        let cnf = pigeonhole(4);
        let (result, proof) = CdclSolver::chaff().solve_recording_proof(&cnf, Budget::unlimited());
        assert!(result.is_unsat());
        assert!(!proof.is_empty(), "a real refutation has steps");
        let text = parse_drat_text(&to_drat_text_string(&proof)).unwrap();
        assert_eq!(text, proof);
        let binary = parse_drat_binary(&to_drat_binary(&proof)).unwrap();
        assert_eq!(binary, proof);
    }
}
