//! The DRAT proof format: clause additions and deletions, in the text and
//! binary encodings used by the SAT competition checkers.
//!
//! Literals are DIMACS-coded `i32` values (1-based, negative for negated
//! literals); a proof is the ordered list of steps the solver performed.  The
//! text format writes one step per line (`1 -2 0`, deletions prefixed with
//! `d`); the binary format prefixes each step with `a` (0x61) or `d` (0x64)
//! and encodes each literal as the variable-length 7-bit integer
//! `2·|lit| + (lit < 0)`, terminated by a zero byte.

use std::fmt;
use std::io::{self, Write};

/// One step of a DRAT proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofStep {
    /// A clause addition (a learned clause, a strengthened clause, or the
    /// empty clause).  Must be RUP-derivable from the clause database at this
    /// point of the proof.
    Add(Vec<i32>),
    /// A clause deletion (database reduction, oversize purge, subsumption).
    Delete(Vec<i32>),
}

impl ProofStep {
    /// The literals of the step, regardless of its kind.
    pub fn lits(&self) -> &[i32] {
        match self {
            ProofStep::Add(lits) | ProofStep::Delete(lits) => lits,
        }
    }

    /// Whether this step is an addition.
    pub fn is_addition(&self) -> bool {
        matches!(self, ProofStep::Add(_))
    }
}

/// The name of a clause in an antecedent hint: an input clause by its
/// position in the checked CNF, or a lemma by its position among the proof's
/// additions (the first addition is lemma 0, deletions are not counted).
///
/// Packed into one `u32` — the high bit tells lemmas from inputs — because a
/// proof carries one hint per resolved literal of every learned clause.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClauseId(u32);

impl ClauseId {
    const LEMMA: u32 = 1 << 31;

    /// The input clause at `index` of the checked CNF.
    ///
    /// # Panics
    ///
    /// When `index` does not fit in 31 bits.
    pub fn input(index: usize) -> Self {
        assert!(index < Self::LEMMA as usize, "input clause id out of range");
        ClauseId(index as u32)
    }

    /// The lemma added by the proof's `index`-th addition step.
    ///
    /// # Panics
    ///
    /// When `index` does not fit in 31 bits.
    pub fn lemma(index: usize) -> Self {
        assert!(index < Self::LEMMA as usize, "lemma id out of range");
        ClauseId(index as u32 | Self::LEMMA)
    }

    /// The input position, when this names an input clause.
    pub fn as_input(self) -> Option<usize> {
        (self.0 & Self::LEMMA == 0).then_some(self.0 as usize)
    }

    /// The addition index, when this names a lemma.
    pub fn as_lemma(self) -> Option<usize> {
        (self.0 & Self::LEMMA != 0).then_some((self.0 & !Self::LEMMA) as usize)
    }
}

/// An ordered DRAT proof: the additions and deletions a solver performed, in
/// the order it performed them.
///
/// An addition may carry *antecedent hints*: the clauses the solver resolved
/// on to derive it, listed in the order unit propagation uses them (the
/// conflict clause last).  Hints name clauses by [`ClauseId`], which fixes the
/// id contract between a solver and the checker: input ids are positions in
/// the clause list the checker is given, in the order the solver received
/// those clauses.  Hints only speed checking up — the checker evaluates every
/// hinted clause itself and falls back to full propagation when they do not
/// reach a conflict — so they are neither compared by `==` nor written by the
/// DRAT text and binary formats.
#[derive(Clone, Debug, Default)]
pub struct Proof {
    steps: Vec<ProofStep>,
    /// The hints of every step, back to back.
    hints: Vec<ClauseId>,
    /// `hint_ends[i]` is where step `i`'s hints end in `hints`.
    hint_ends: Vec<u32>,
    /// Addition steps so far: the index the next lemma gets.
    additions: usize,
}

impl PartialEq for Proof {
    fn eq(&self, other: &Self) -> bool {
        self.steps == other.steps
    }
}

impl Eq for Proof {}

impl Proof {
    /// Creates an empty proof.
    pub fn new() -> Self {
        Proof::default()
    }

    /// Appends a clause addition without hints.
    pub fn add(&mut self, lits: Vec<i32>) {
        self.add_hinted(lits, &[]);
    }

    /// Appends a clause addition with its antecedent hints and returns the
    /// id later hints use to name the new lemma.
    pub fn add_hinted(&mut self, lits: Vec<i32>, hints: &[ClauseId]) -> ClauseId {
        let id = ClauseId::lemma(self.additions);
        self.additions += 1;
        self.push(ProofStep::Add(lits), hints);
        id
    }

    /// Appends a clause deletion.
    pub fn delete(&mut self, lits: Vec<i32>) {
        self.push(ProofStep::Delete(lits), &[]);
    }

    fn push(&mut self, step: ProofStep, hints: &[ClauseId]) {
        reserve_gently(&mut self.steps, 1);
        reserve_gently(&mut self.hints, hints.len());
        reserve_gently(&mut self.hint_ends, 1);
        self.steps.push(step);
        self.hints.extend_from_slice(hints);
        let end = u32::try_from(self.hints.len()).expect("hint pool exceeds u32 offsets");
        self.hint_ends.push(end);
    }

    /// The steps of the proof, in order.
    pub fn steps(&self) -> &[ProofStep] {
        &self.steps
    }

    /// The antecedent hints of the step at `index` (empty for deletions,
    /// unhinted additions and out-of-range indices).
    pub fn hints(&self, index: usize) -> &[ClauseId] {
        let Some(&end) = self.hint_ends.get(index) else {
            return &[];
        };
        let start = index.checked_sub(1).map_or(0, |i| self.hint_ends[i]);
        &self.hints[start as usize..end as usize]
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the proof has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The last step, if any.
    pub fn last(&self) -> Option<&ProofStep> {
        self.steps.last()
    }

    /// The step at `index`, if it exists.
    pub fn step(&self, index: usize) -> Option<&ProofStep> {
        self.steps.get(index)
    }

    /// Mutable access to a step (used by mutation tests that corrupt a proof
    /// on purpose to check that the checker rejects it).  The step keeps its
    /// hints.
    pub fn step_mut(&mut self, index: usize) -> Option<&mut ProofStep> {
        self.steps.get_mut(index)
    }

    /// Number of addition steps.
    pub fn num_additions(&self) -> usize {
        self.steps.iter().filter(|s| s.is_addition()).count()
    }
}

/// Makes room for `additional` more entries of an append-only buffer,
/// growing it by an eighth instead of doubling: a proof of a large
/// refutation holds tens of megabytes, and a doubled buffer can carry as
/// much slack as data.
fn reserve_gently<T>(buffer: &mut Vec<T>, additional: usize) {
    if buffer.capacity() - buffer.len() < additional {
        buffer.reserve_exact(additional.max(buffer.len() / 8).max(64));
    }
}

/// An error produced while parsing a DRAT proof.
#[derive(Debug)]
pub enum ParseDratError {
    /// An I/O error from the underlying reader.
    Io(io::Error),
    /// The input was not a well-formed DRAT proof.
    Malformed(String),
}

impl fmt::Display for ParseDratError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseDratError::Io(e) => write!(f, "i/o error while reading DRAT: {e}"),
            ParseDratError::Malformed(msg) => write!(f, "malformed DRAT input: {msg}"),
        }
    }
}

impl std::error::Error for ParseDratError {}

impl From<io::Error> for ParseDratError {
    fn from(e: io::Error) -> Self {
        ParseDratError::Io(e)
    }
}

/// Writes a proof in the text DRAT format.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_text<W: Write>(mut writer: W, proof: &Proof) -> io::Result<()> {
    for step in proof.steps() {
        if let ProofStep::Delete(_) = step {
            write!(writer, "d ")?;
        }
        for lit in step.lits() {
            write!(writer, "{lit} ")?;
        }
        writeln!(writer, "0")?;
    }
    Ok(())
}

/// Renders a proof as a text DRAT string.
pub fn to_text_string(proof: &Proof) -> String {
    let mut out = Vec::new();
    write_text(&mut out, proof).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("DRAT text output is ASCII")
}

/// Parses a text DRAT proof.  Comment lines starting with `c` and blank lines
/// are tolerated; every step must be terminated by `0` on its own line.
///
/// # Errors
///
/// Returns [`ParseDratError`] on malformed input.
pub fn parse_text(input: &str) -> Result<Proof, ParseDratError> {
    let mut proof = Proof::new();
    for line in input.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let (is_delete, body) = match line.strip_prefix('d') {
            // Distinguish the deletion prefix from a literal that merely
            // starts the line: `d` must be followed by whitespace.
            Some(rest) if rest.starts_with(char::is_whitespace) => (true, rest),
            _ => (false, line),
        };
        let mut lits = Vec::new();
        let mut terminated = false;
        for token in body.split_whitespace() {
            let value: i32 = token
                .parse()
                .map_err(|_| ParseDratError::Malformed(format!("invalid literal `{token}`")))?;
            if value == 0 {
                terminated = true;
                break;
            }
            lits.push(value);
        }
        if !terminated {
            return Err(ParseDratError::Malformed(format!(
                "unterminated DRAT line `{line}`"
            )));
        }
        if is_delete {
            proof.delete(lits);
        } else {
            proof.add(lits);
        }
    }
    Ok(proof)
}

/// The variable-length 7-bit encoding of one mapped literal value.
fn push_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Maps a DIMACS literal to its binary-DRAT unsigned code.
fn map_lit(lit: i32) -> u64 {
    if lit > 0 {
        2 * lit as u64
    } else {
        2 * (-(lit as i64)) as u64 + 1
    }
}

/// Unmaps a binary-DRAT code back to a DIMACS literal.
fn unmap_lit(code: u64) -> Result<i32, ParseDratError> {
    let var = i32::try_from(code >> 1)
        .map_err(|_| ParseDratError::Malformed(format!("literal code {code} out of range")))?;
    Ok(if code & 1 == 0 { var } else { -var })
}

/// Serializes a proof in the binary DRAT format.
pub fn to_binary(proof: &Proof) -> Vec<u8> {
    let mut out = Vec::new();
    for step in proof.steps() {
        out.push(match step {
            ProofStep::Add(_) => b'a',
            ProofStep::Delete(_) => b'd',
        });
        for &lit in step.lits() {
            push_varint(&mut out, map_lit(lit));
        }
        out.push(0);
    }
    out
}

/// Writes a proof in the binary DRAT format.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_binary<W: Write>(mut writer: W, proof: &Proof) -> io::Result<()> {
    writer.write_all(&to_binary(proof))
}

/// Parses a binary DRAT proof.
///
/// # Errors
///
/// Returns [`ParseDratError`] on truncated or malformed input.
pub fn parse_binary(input: &[u8]) -> Result<Proof, ParseDratError> {
    let mut proof = Proof::new();
    let mut pos = 0usize;
    while pos < input.len() {
        let kind = input[pos];
        pos += 1;
        let is_delete = match kind {
            b'a' => false,
            b'd' => true,
            other => {
                return Err(ParseDratError::Malformed(format!(
                    "unexpected step tag byte 0x{other:02x} at offset {}",
                    pos - 1
                )))
            }
        };
        let mut lits = Vec::new();
        loop {
            // Read one varint.
            let mut value: u64 = 0;
            let mut shift = 0u32;
            loop {
                let byte = *input.get(pos).ok_or_else(|| {
                    ParseDratError::Malformed("truncated binary DRAT step".into())
                })?;
                pos += 1;
                if shift >= 63 {
                    return Err(ParseDratError::Malformed(
                        "binary DRAT literal overflows".into(),
                    ));
                }
                value |= u64::from(byte & 0x7f) << shift;
                shift += 7;
                if byte & 0x80 == 0 {
                    break;
                }
            }
            if value == 0 {
                break;
            }
            lits.push(unmap_lit(value)?);
        }
        if is_delete {
            proof.delete(lits);
        } else {
            proof.add(lits);
        }
    }
    Ok(proof)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Proof {
        let mut proof = Proof::new();
        proof.add(vec![1, -2, 3]);
        proof.delete(vec![-1, 2]);
        proof.add(vec![-3]);
        proof.add(vec![]);
        proof
    }

    #[test]
    fn text_roundtrip() {
        let proof = sample();
        let text = to_text_string(&proof);
        assert!(text.contains("d -1 2 0"));
        assert!(text.ends_with("0\n"));
        let parsed = parse_text(&text).unwrap();
        assert_eq!(parsed, proof);
    }

    #[test]
    fn text_tolerates_comments_and_blank_lines() {
        let input = "c a comment\n\n1 -2 0\nd 1 -2 0\n  0  \n";
        let proof = parse_text(input).unwrap();
        assert_eq!(proof.len(), 3);
        assert_eq!(proof.steps()[0], ProofStep::Add(vec![1, -2]));
        assert_eq!(proof.steps()[1], ProofStep::Delete(vec![1, -2]));
        assert_eq!(proof.steps()[2], ProofStep::Add(vec![]));
    }

    #[test]
    fn text_rejects_malformed_lines() {
        assert!(parse_text("1 2\n").is_err(), "unterminated");
        assert!(parse_text("1 junk 0\n").is_err(), "bad literal");
    }

    #[test]
    fn binary_roundtrip() {
        let proof = sample();
        let bytes = to_binary(&proof);
        assert_eq!(bytes[0], b'a');
        let parsed = parse_binary(&bytes).unwrap();
        assert_eq!(parsed, proof);
    }

    #[test]
    fn binary_roundtrip_with_large_literals() {
        let mut proof = Proof::new();
        proof.add(vec![1_000_000, -2_000_000, 3]);
        proof.delete(vec![-1_000_000]);
        let parsed = parse_binary(&to_binary(&proof)).unwrap();
        assert_eq!(parsed, proof);
    }

    #[test]
    fn binary_rejects_garbage() {
        assert!(parse_binary(&[b'x', 0]).is_err(), "bad tag");
        assert!(parse_binary(&[b'a', 0x82]).is_err(), "truncated varint");
        assert!(parse_binary(&[b'a', 2]).is_err(), "missing terminator");
    }

    #[test]
    fn hints_ride_along_but_stay_out_of_equality_and_the_formats() {
        let mut hinted = Proof::new();
        let first = hinted.add_hinted(vec![1], &[ClauseId::input(0), ClauseId::input(2)]);
        hinted.delete(vec![-1, 2]);
        let second = hinted.add_hinted(vec![], &[first]);
        assert_eq!(first.as_lemma(), Some(0));
        assert_eq!(second.as_lemma(), Some(1));
        assert_eq!(ClauseId::input(2).as_input(), Some(2));
        assert_eq!(first.as_input(), None);
        assert_eq!(hinted.hints(0), [ClauseId::input(0), ClauseId::input(2)]);
        assert!(hinted.hints(1).is_empty());
        assert_eq!(hinted.hints(2), [first]);
        assert!(hinted.hints(3).is_empty());
        let mut plain = Proof::new();
        plain.add(vec![1]);
        plain.delete(vec![-1, 2]);
        plain.add(vec![]);
        assert_eq!(hinted, plain);
        assert_eq!(to_binary(&hinted), to_binary(&plain));
        assert_eq!(to_text_string(&hinted), to_text_string(&plain));
    }

    #[test]
    fn step_helpers() {
        let proof = sample();
        assert_eq!(proof.num_additions(), 3);
        assert!(proof.last().unwrap().lits().is_empty());
        assert!(!proof.is_empty());
    }
}
