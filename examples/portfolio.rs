//! Racing back ends: verify a DLX pipeline with the parallel portfolio.
//!
//! The portfolio translates the correctness criterion once, then races CDCL
//! presets against the BDD build; the first engine to decide wins and the
//! losers are cancelled cooperatively.  The example panics (and fails CI)
//! unless the correct design verifies and the catalog bug is found.  Run
//! with:
//!
//! ```text
//! cargo run --release --example portfolio
//! ```

use velv::prelude::*;

fn main() {
    let config = DlxConfig::single_issue();
    let verifier = Verifier::new(TranslationOptions::default());
    let spec = DlxSpecification::new(config);

    for (label, design, buggy) in [
        ("1xDLX-C (correct)", Dlx::correct(config), false),
        (
            "1xDLX-C (buggy forwarding)",
            Dlx::buggy(config, dlx_bug_catalog(config)[0]),
            true,
        ),
    ] {
        let outcome = verifier.verify_portfolio(
            &design,
            &spec,
            &[Backend::default_portfolio()],
            Budget::unlimited(),
        );
        println!("{label}");
        println!(
            "  verdict: {}   wall time: {:.3}s   winner: {}",
            if outcome.verdict.is_correct() {
                "correct"
            } else if outcome.verdict.is_buggy() {
                "buggy"
            } else {
                "unknown"
            },
            outcome.wall_time.as_secs_f64(),
            outcome.winner.as_deref().unwrap_or("--"),
        );
        for run in &outcome.runs {
            println!(
                "  {:<10} {:>8.3}s  decided: {:<5}  {}",
                run.name,
                run.time.as_secs_f64(),
                run.verdict.is_correct() || run.verdict.is_buggy(),
                if run.winner { "<- winner" } else { "" },
            );
        }
        println!();
        let expected = if buggy {
            outcome.verdict.is_buggy()
        } else {
            outcome.verdict.is_correct()
        };
        assert!(expected, "{label}: wrong verdict {:?}", outcome.verdict);
    }
}
