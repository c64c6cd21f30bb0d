//! Harnesses for the reproduction of Velev & Bryant (DAC 2001 / JSC 2003).
//!
//! `paper [--only id,…] [--full] [--out PATH]` reproduces the paper's tables
//! and figures as one claim table, one row per claim in `BENCH_paper.json`:
//! `table1`…`table9`, `fig7`, `fig10`, `approx`, `cnf_stats`, `portfolio`.
//! A row holds the paper's figure, `ours`, deterministic `counters`
//! (verdicts, conflicts, CNF sizes, *e*ij variables, triangles), named
//! `checks`, a `timing` object (wall times, race winners; never checked) and
//! a verdict: `pass`; `deviation` when every failing check is listed in the
//! claim table with its measured cause (the row's `reason`); else `fail`,
//! and the run exits 1.  Solves are step-bounded and each runs once.
//! `--full` runs whole bug catalogs (default: 12 bugs per suite).
//!
//! `satbench` measures throughput into `BENCH_cdcl.json` and
//! `BENCH_serve.json`, `benchdiff` compares and gates two such files,
//! `dratcheck` checks a DRAT proof, and [`microbench`] is a Criterion shim.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod microbench;
