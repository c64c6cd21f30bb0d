//! `dratcheck` — check a DRAT proof against a DIMACS CNF from the CLI.
//!
//! Replays a proof produced by a proof-logging solve (or by any external
//! DRAT-emitting solver) through the independent RUP checker of `velv_proof`.
//!
//! Usage: `dratcheck [--binary] [--trim] CNF_FILE PROOF_FILE`
//!
//! * `--binary` — parse the proof in the binary DRAT encoding instead of the
//!   text format.
//! * `--trim`   — backward-trim the verified proof and report the used
//!   input-clause core.
//!
//! Exit status: 0 when the proof is verified, 1 when it is rejected, 2 on
//! usage or I/O errors.

use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;
use std::time::Instant;
use velv_proof::{check_proof, CheckOptions};
use velv_sat::dimacs::{cnf_to_dimacs_i32, parse_drat_binary, parse_drat_text, read_dimacs};

fn usage() -> ExitCode {
    eprintln!("usage: dratcheck [--binary] [--trim] CNF_FILE PROOF_FILE");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut binary = false;
    let mut trim = false;
    let mut paths: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--binary" => binary = true,
            "--trim" => trim = true,
            "--help" | "-h" => return usage(),
            _ => paths.push(arg),
        }
    }
    let [cnf_path, proof_path] = match <[String; 2]>::try_from(paths) {
        Ok(paths) => paths,
        Err(_) => return usage(),
    };

    let cnf_file = match File::open(&cnf_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("dratcheck: cannot open {cnf_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let cnf = match read_dimacs(BufReader::new(cnf_file)) {
        Ok(cnf) => cnf,
        Err(e) => {
            eprintln!("dratcheck: {cnf_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let proof = {
        let bytes = match std::fs::read(&proof_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("dratcheck: cannot read {proof_path}: {e}");
                return ExitCode::from(2);
            }
        };
        let parsed = if binary {
            parse_drat_binary(&bytes)
        } else {
            match String::from_utf8(bytes) {
                Ok(text) => parse_drat_text(&text),
                Err(_) => {
                    eprintln!("dratcheck: {proof_path} is not UTF-8 text; did you mean --binary?");
                    return ExitCode::from(2);
                }
            }
        };
        match parsed {
            Ok(p) => p,
            Err(e) => {
                eprintln!("dratcheck: {proof_path}: {e}");
                return ExitCode::from(2);
            }
        }
    };

    let clauses = cnf_to_dimacs_i32(&cnf);
    println!(
        "dratcheck: {} clauses, {} proof steps ({} additions)",
        clauses.len(),
        proof.len(),
        proof.num_additions(),
    );
    let start = Instant::now();
    match check_proof(&clauses, &proof, &CheckOptions { trim }) {
        Ok(report) => {
            let elapsed = start.elapsed();
            println!(
                "VERIFIED in {elapsed:?}: {} additions, {} deletions ({} ignored), empty clause {}",
                report.additions,
                report.deletions,
                report.ignored_deletions,
                if report.derived_empty {
                    "derived"
                } else {
                    "not derived"
                },
            );
            if let (Some(core), Some(trimmed)) = (&report.input_core, report.trimmed_additions) {
                println!(
                    "trim: {} of {} input clauses used, {} of {} additions kept",
                    core.len(),
                    clauses.len(),
                    trimmed,
                    report.additions,
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("REJECTED after {:?}: {e}", start.elapsed());
            ExitCode::FAILURE
        }
    }
}
