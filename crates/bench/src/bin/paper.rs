//! `paper` — the paper's tables and figures as one checked claim table
//! ([`CLAIMS`]); the `velv_bench` crate doc describes its options, row format
//! and deviation rule.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use velv_core::{Backend, Translation, TranslationOptions, TranslationStats, Verdict, Verifier};
use velv_hdl::Processor;
use velv_models::dlx::{self, Dlx, DlxBug, DlxConfig, DlxSpecification};
use velv_models::ooo::{Ooo, OooSpecification};
use velv_models::vliw::{self, Vliw, VliwBug, VliwConfig, VliwSpecification};
use velv_obs::json::quoted;
use velv_sat::presets::chaff_parameter_variations;
use velv_sat::presets::SolverKind::{self, BerkMin, Chaff, Dlm, Dpll, Grasp, Sato, WalkSat};
use velv_sat::{Budget, Solver, SolverStats};

/// Step budget of CDCL on buggy 2×DLX-CC-MC-EX-BP: about 6 s of SATO.
const DLX_BUG_STEPS: u64 = 2_000_000;
/// DPLL, WalkSAT and DLM there: each of their steps scans the whole CNF.
const SLOW_BUG_STEPS: u64 = 10_000;
const VLIW_BUG_STEPS: u64 = 1_000_000;
const PROOF_STEPS: u64 = 5_000_000;
/// Step budget without positive equality (Table 9): about twice the 551k
/// decisions of the costliest proof with it.
const NO_PE_STEPS: u64 = 1_000_000;
/// BDD node limits of Table 1 (and the portfolio) and of Fig. 7.
const TABLE1_BDD_NODES: usize = 200_000;
const FIG7_BDD_NODES: usize = 300_000;
/// The paper's Table 1 time limits (24 / 240 / 2400 s), scaled down.
const TABLE1_LIMITS_S: [f64; 3] = [0.25, 2.5, 25.0];
/// The CDCL members of the portfolio race; a BDD build is the fifth.
const RACE: [SolverKind; 4] = [Chaff, BerkMin, Grasp, Sato];

/// A benchmark design: a catalog configuration, optionally with one bug.
#[derive(Clone, Copy, Debug)]
enum Design {
    Dlx(DlxConfig, Option<DlxBug>),
    Vliw(VliwConfig, Option<VliwBug>),
    Ooo(usize),
}

impl Design {
    fn build(self) -> (Box<dyn Processor>, Box<dyn Processor>) {
        match self {
            Design::Dlx(config, bug) => (
                Box::new(bug.map_or_else(|| Dlx::correct(config), |b| Dlx::buggy(config, b))),
                Box::new(DlxSpecification::new(config)),
            ),
            Design::Vliw(config, bug) => (
                Box::new(bug.map_or_else(|| Vliw::correct(config), |b| Vliw::buggy(config, b))),
                Box::new(VliwSpecification::new(config)),
            ),
            Design::Ooo(width) => (Box::new(Ooo::new(width)), Box::new(OooSpecification::new())),
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Engine {
    Sat(SolverKind),
    /// Chaff parameter variation 1–3 of Table 2 (variation 0 is `Sat(Chaff)`).
    ChaffVariant(usize),
    Bdd(usize),
    /// The portfolio race of [`RACE`] and a BDD build.
    Race,
}

/// One solve: translation options, number of weak criteria (0 for the
/// monolithic criterion), engine and step budget.
#[derive(Clone)]
struct Setup {
    options: TranslationOptions,
    split: usize,
    engine: Engine,
    steps: u64,
}

fn setup(engine: Engine, steps: u64) -> Setup {
    Setup {
        options: TranslationOptions::base(),
        split: 0,
        engine,
        steps,
    }
}

fn chaff(steps: u64) -> Setup {
    setup(Engine::Sat(Chaff), steps)
}

impl Setup {
    fn with(self, options: TranslationOptions) -> Setup {
        Setup { options, ..self }
    }

    fn split(self, split: usize) -> Setup {
        Setup { split, ..self }
    }
}

/// The outcome of one obligation.
#[derive(Clone, Debug)]
struct Part {
    verdict: Verdict,
    stats: SolverStats,
    sizes: TranslationStats,
    solve_s: f64,
    winner: Option<String>,
}

/// The outcome of one solve: one part per obligation.
#[derive(Clone, Debug)]
struct Run {
    parts: Vec<Part>,
    steps: u64,
}

impl Run {
    /// The obligations' verdicts folded by [`Verdict::absorb_obligation`].
    fn verdict(&self) -> Verdict {
        let mut verdict = Verdict::Correct;
        for part in &self.parts {
            verdict.absorb_obligation(&part.verdict);
        }
        verdict
    }

    fn buggy(&self) -> bool {
        self.verdict().is_buggy()
    }

    fn proven(&self) -> bool {
        self.verdict().is_correct()
    }

    fn sizes(&self) -> &TranslationStats {
        &self.parts[0].sizes
    }

    fn conflicts(&self) -> u64 {
        self.parts.iter().map(|p| p.stats.conflicts).sum()
    }

    /// Conflicts of the cheapest falsified obligation (parallel weak criteria
    /// detect a bug at that cost), or the step budget when none is falsified.
    fn detection(&self) -> u64 {
        let found = self.parts.iter().filter(|p| p.verdict.is_buggy());
        found.map(|p| p.stats.conflicts).min().unwrap_or(self.steps)
    }

    /// Wall time of the fastest falsified obligation, or of all of them.
    fn detection_s(&self) -> f64 {
        let found = self.parts.iter().filter(|p| p.verdict.is_buggy());
        let all = || self.parts.iter().map(|p| p.solve_s).sum();
        let fastest = found.map(|p| p.solve_s).reduce(f64::min);
        fastest.unwrap_or_else(all)
    }
}

/// The memo of every solve of one invocation.
#[derive(Default)]
struct Lab {
    runs: HashMap<String, Run>,
    /// The latest translation, keyed by design, options and split.
    translated: Option<(String, Vec<Translation>)>,
    reused: u64,
}

impl Lab {
    fn run(&mut self, design: Design, setup: &Setup) -> Run {
        let options = setup.options.canonical_token();
        let translation_key = format!("{design:?}|{options}|{}", setup.split);
        let key = format!("{translation_key}|{:?}|{}", setup.engine, setup.steps);
        if let Some(run) = self.runs.get(&key) {
            self.reused += 1;
            return run.clone();
        }
        let verifier = Verifier::new(setup.options.clone());
        if self.translated.as_ref().map(|(k, _)| k) != Some(&translation_key) {
            self.translated = None;
            let (implementation, spec) = design.build();
            let (implementation, spec) = (implementation.as_ref(), spec.as_ref());
            let translations = if setup.split == 0 {
                vec![verifier.translate(implementation, spec)]
            } else {
                let problem = verifier.build_problem(implementation, spec);
                verifier.translate_obligations(&problem, setup.split)
            };
            self.translated = Some((translation_key, translations));
        }
        let translations = &self.translated.as_ref().expect("translated above").1;
        let parts = translations.iter().map(|t| solve(&verifier, t, setup));
        let (parts, steps) = (parts.collect(), setup.steps);
        let run = Run { parts, steps };
        self.runs.insert(key, run.clone());
        run
    }

    /// Runs every setup on every design; indexed `[setup][design]`.
    fn sweep(&mut self, designs: &[Design], setups: &[Setup]) -> Vec<Vec<Run>> {
        let mut runs = vec![Vec::new(); setups.len()];
        for &design in designs {
            for (i, setup) in setups.iter().enumerate() {
                runs[i].push(self.run(design, setup));
            }
        }
        runs
    }
}

fn solve(verifier: &Verifier, translation: &Translation, setup: &Setup) -> Part {
    let budget = Budget::step_limit(setup.steps);
    let start = Instant::now();
    let (mut stats, mut winner) = (SolverStats::default(), None);
    let mut sat = |solver: &mut dyn Solver| {
        let verdict = verifier.check(translation, solver, budget.clone());
        stats = solver.stats();
        verdict
    };
    let verdict = match setup.engine {
        Engine::Sat(kind) => sat(kind.build().as_mut()),
        Engine::ChaffVariant(i) => sat(chaff_parameter_variations().swap_remove(i).as_mut()),
        Engine::Bdd(node_limit) => {
            let bdd = Backend::Bdd { node_limit };
            verifier.check_with_backend(translation, &bdd, Budget::unlimited())
        }
        Engine::Race => {
            let mut members = RACE.map(Backend::Sat).to_vec();
            let node_limit = TABLE1_BDD_NODES;
            members.push(Backend::Bdd { node_limit });
            let outcome = verifier.check_portfolio(translation, &members, budget);
            winner = outcome.winner;
            outcome.verdict
        }
    };
    Part {
        verdict,
        stats,
        sizes: translation.stats,
        solve_s: start.elapsed().as_secs_f64(),
        winner,
    }
}

/// What a claim measured.
#[derive(Default)]
struct Measured {
    counters: Vec<(String, u64)>,
    /// Wall times and race winners: recorded, never checked.
    timing: Vec<(String, f64)>,
    checks: Vec<(&'static str, bool)>,
}

impl Measured {
    fn count(&mut self, key: impl Into<String>, value: impl TryInto<u64>) {
        let value = value.try_into().unwrap_or(u64::MAX);
        self.counters.push((key.into(), value));
    }

    fn get(&self, key: &str) -> u64 {
        let found = self.counters.iter().find(|(k, _)| k == key);
        found.unwrap_or_else(|| panic!("no counter {key}")).1
    }

    fn time(&mut self, key: impl Into<String>, seconds: f64) {
        let rounded = (seconds * 1e4).round() / 1e4;
        self.timing.push((key.into(), rounded));
    }

    fn check(&mut self, name: &'static str, holds: bool) {
        self.checks.push((name, holds));
    }

    /// Records one setup's runs: designs found buggy and proven, conflicts,
    /// and the sum and maximum of [`Run::detection`] when some run is buggy.
    fn record(&mut self, label: &str, runs: &[Run]) {
        let count = |f: fn(&Run) -> bool| runs.iter().filter(|r| f(r)).count();
        self.count(format!("{label}.buggy"), count(Run::buggy));
        self.count(format!("{label}.correct"), count(Run::proven));
        let conflicts: u64 = runs.iter().map(Run::conflicts).sum();
        self.count(format!("{label}.conflicts"), conflicts);
        if runs.iter().any(Run::buggy) {
            self.detections(label, runs.iter().map(Run::detection));
        }
        let seconds = runs.iter().map(Run::detection_s).sum();
        self.time(format!("{label}.s"), seconds);
    }

    fn detections(&mut self, label: &str, costs: impl Iterator<Item = u64> + Clone) {
        self.count(format!("{label}.detect_sum"), costs.clone().sum::<u64>());
        self.count(format!("{label}.detect_max"), costs.max().unwrap_or(0));
    }

    /// Records the size counters of one translation.
    fn sizes(&mut self, label: &str, sizes: &TranslationStats) {
        self.count(format!("{label}.primary_vars"), sizes.primary_bool_vars);
        self.count(format!("{label}.cnf_vars"), sizes.cnf_vars);
        self.count(format!("{label}.cnf_clauses"), sizes.cnf_clauses);
        self.count(format!("{label}.eij_vars"), sizes.eij_vars);
        self.count(format!("{label}.triangles"), sizes.transitivity_triangles);
    }

    /// Our values: the counters whose keys end with one of `suffixes`.
    fn ours(&self, suffixes: &[&str]) -> String {
        let shown = self.counters.iter();
        let shown = shown.filter(|(k, _)| suffixes.iter().any(|s| k.ends_with(s)));
        let shown: Vec<String> = shown.map(|(k, v)| format!("{k} {v}")).collect();
        shown.join(", ")
    }
}

/// One paper claim.
struct Claim {
    id: &'static str,
    /// The paper's figure.
    paper: &'static str,
    /// Checks allowed to fail, each with its measured cause.
    deviations: &'static [(&'static str, &'static str)],
    /// The counters (by key suffix) shown as our values.
    show: &'static [&'static str],
    /// Measures the claim; `true` runs the full suites.
    measure: fn(&mut Lab, &mut Measured, bool),
}

/// The claim table, in run order.
const CLAIMS: &[Claim] = &[
    Claim {
        id: "table1",
        paper: "buggy 2xDLX-CC-MC-EX-BP solved within 24/240/2400 s: Chaff 100/100/100%, \
                BerkMin 97/100/100, DLM-3 51/82/98, GRASP 14/21/24, BDDs 2/2/3",
        deviations: &[(
            "dlm_solves_some",
            "DLM stops at its 10,000-flip budget without a model on every design. It \
             makes about 2,100 flips/s on a shared 2-core host because every flip rescans \
             all 37,119 clauses for the unsatisfied ones (velv_sat::local_search); the old \
             25-s wall limit (about 50,000 flips) found no model either.",
        )],
        show: &[".buggy"],
        measure: table1,
    },
    Claim {
        id: "portfolio",
        paper: "no fixed SAT procedure is safe; racing them costs about the best one's time",
        deviations: &[],
        show: &[".buggy"],
        measure: portfolio,
    },
    Claim {
        id: "table2",
        paper: "buggy 9VLIW-MC-BP, Chaff max/avg: base 180.4/32.5 s; min of 4 structural runs \
                74.9/14.4 s; min of 4 parameter runs 176.8/15.0 s",
        deviations: &[],
        show: &["detect_sum", "detect_max"],
        measure: table2,
    },
    Claim {
        id: "table3",
        paper: "buggy 9VLIW-MC-BP max/avg: Chaff eij 180.4/32.5 s vs small-domain 594.0/100.4 s; \
                BerkMin eij 151.4/43.6 s vs small-domain 245.0/85.0 s",
        deviations: &[],
        show: &["detect_sum", "detect_max"],
        measure: table3,
    },
    Claim {
        id: "fig10",
        paper: "BerkMin: eij is faster than small-domain on 87 of the 100 buggy VLIW designs",
        deviations: &[],
        show: &["conflicts", "designs"],
        measure: fig10,
    },
    Claim {
        id: "table6",
        paper: "buggy 9VLIW-MC-BP, Chaff min/max/avg: 1 run 3.7/180.4/32.5 s; 8 weak criteria \
                0.3/31.3/4.1 s; 16 weak criteria 0.2/17.5/2.8 s",
        deviations: &[],
        show: &["detect_sum", "detect_max"],
        measure: table6,
    },
    Claim {
        id: "fig7",
        paper: "buggy 9VLIW-MC-BP: Chaff (1 monolithic run) beats BDDs (16 weak criteria) by up \
                to four orders of magnitude",
        deviations: &[],
        show: &[".buggy", "outs"],
        measure: fig7,
    },
    Claim {
        id: "table7",
        paper: "four design bugs of 9VLIW-MC-BP-EX: Chaff detects them in 12.2-108.4 s \
                monolithically; ~20 weak criteria cut the times about 2x",
        deviations: &[],
        show: &["detect_sum"],
        measure: table7,
    },
    Claim {
        id: "table4",
        paper: "out-of-order widths 2-6: eij uses more primary Boolean variables but fewer CNF \
                variables and clauses than small-domain",
        deviations: &[],
        show: &["primary_vars", "cnf_clauses"],
        measure: table4,
    },
    Claim {
        id: "table5",
        paper: "correct out-of-order designs: proof times grow steeply with width and eij beats \
                small-domain (width 6, Chaff: 68,896 s vs 132,428 s)",
        deviations: &[],
        show: &["chaff.eij.conflicts", "chaff.sd.conflicts"],
        measure: table5,
    },
    Claim {
        id: "table8",
        paper: "correct 9VLIW-MC-BP, Chaff: 759 s monolithic, 349 s with 8 weak criteria, 264 s \
                with 16; 9VLIW-MC-BP-EX similar with 11/22",
        deviations: &[],
        show: &["costliest_conflicts"],
        measure: table8,
    },
    Claim {
        id: "approx",
        paper: "correct 9VLIW-MC-BP-EX: translation boxes and abstracted memories give no false \
                negatives (Chaff 914 s without, 660 s with)",
        deviations: &[],
        show: &[".correct", ".conflicts"],
        measure: approx,
    },
    Claim {
        id: "cnf_stats",
        paper: "CNF vars/clauses: 1xDLX-C 776/3,725; 2xDLX-CC 1,516/12,812; 2xDLX-CC-MC-EX-BP \
                4,583/41,704; 9VLIW-MC-BP 20,093/179,492",
        deviations: &[],
        show: &["cnf_vars", "cnf_clauses"],
        measure: cnf_stats,
    },
    Claim {
        id: "table9",
        paper: "Chaff with vs without positive equality: 1xDLX-C 0.19 s vs 9,177 s; \
                2xDLX-CC-MC-EX-BP 22 s vs >24 h; 9VLIW-MC-BP 759 s vs out of memory",
        deviations: &[(
            "no_pe_never_cheaper",
            "1xDLX-C-buggy: Chaff finds the bug in 8 conflicts without positive equality \
             and 10 with it, on a CNF 3.2x larger (5,337 vs 1,674 variables): a bug this \
             shallow falls within a dozen conflicts either way. Every other design costs \
             more without it: 2.1x the conflicts to prove 1xDLX-C, and no proof of \
             2xDLX-CC-MC-EX-BP or 9VLIW-MC-BP within 1,000,000 steps (457,393 and 304,796 \
             conflicts) where positive equality needs 144,643 and 83,189.",
        )],
        show: &["pe.conflicts"],
        measure: table9,
    },
];

fn dlx_suite(full: bool) -> Vec<Design> {
    let config = DlxConfig::dual_issue_full();
    let take = if full { usize::MAX } else { 12 };
    let bugs = dlx::bug_catalog(config).into_iter().take(take);
    bugs.map(|bug| Design::Dlx(config, Some(bug))).collect()
}

fn vliw_suite(full: bool) -> Vec<Design> {
    let config = VliwConfig::base();
    let take = if full { usize::MAX } else { 12 };
    let bugs = vliw::bug_catalog(config).into_iter().take(take);
    bugs.map(|bug| Design::Vliw(config, Some(bug))).collect()
}

/// The setup of `engine` on the buggy 2×DLX-CC-MC-EX-BP suite.
fn dlx_bug_setup(engine: Engine) -> Setup {
    let steps = match engine {
        Engine::Sat(Dpll | WalkSat | Dlm) => SLOW_BUG_STEPS,
        Engine::Bdd(_) => 0,
        _ => DLX_BUG_STEPS,
    };
    setup(engine, steps)
}

/// Chaff and BerkMin setups on the eij and small-domain encodings, labelled.
fn encodings(steps: u64) -> ([&'static str; 4], Vec<Setup>) {
    let small_domain = TranslationOptions::base().with_small_domain();
    let mut setups = Vec::new();
    for kind in [Chaff, BerkMin] {
        setups.push(setup(Engine::Sat(kind), steps));
        setups.push(setup(Engine::Sat(kind), steps).with(small_domain.clone()));
    }
    let labels = ["chaff.eij", "chaff.sd", "berkmin.eij", "berkmin.sd"];
    (labels, setups)
}

fn all_proven(runs: &[Vec<Run>]) -> bool {
    runs.iter().flatten().all(Run::proven)
}

fn table1(lab: &mut Lab, m: &mut Measured, full: bool) {
    let mut engines = Vec::new();
    for &kind in SolverKind::all() {
        engines.push((format!("{kind:?}").to_lowercase(), Engine::Sat(kind)));
    }
    engines.push(("bdd".to_owned(), Engine::Bdd(TABLE1_BDD_NODES)));
    let setups: Vec<Setup> = engines.iter().map(|e| dlx_bug_setup(e.1)).collect();
    let runs = lab.sweep(&dlx_suite(full), &setups);
    for ((name, _), runs) in engines.iter().zip(&runs) {
        m.record(name, runs);
        let parts = runs.iter().flat_map(|r| &r.parts);
        let steps = parts.map(|p| p.stats.conflicts + p.stats.decisions + p.stats.flips);
        m.count(format!("{name}.steps"), steps.sum::<u64>());
        for limit in TABLE1_LIMITS_S {
            let within = |r: &&Run| r.buggy() && r.parts[0].solve_s <= limit;
            let pct = 100.0 * runs.iter().filter(within).count() as f64 / runs.len() as f64;
            m.time(format!("{name}.pct_within_{limit}s"), pct);
        }
    }
    let found = |name: &str| m.get(&format!("{name}.buggy"));
    let (all, chaff) = (runs[0].len() as u64, found("chaff"));
    let no_more = found("dpll").max(found("bdd")) <= chaff;
    let (berkmin, dlm) = (found("berkmin") == all, found("dlm") > 0);
    m.check("chaff_solves_all", chaff == all);
    m.check("berkmin_solves_all", berkmin);
    m.check("dpll_and_bdds_solve_no_more_than_chaff", no_more);
    m.check("dlm_solves_some", dlm);
}

fn portfolio(lab: &mut Lab, m: &mut Measured, full: bool) {
    let mut engines = RACE.map(Engine::Sat).to_vec();
    engines.extend([Engine::Bdd(TABLE1_BDD_NODES), Engine::Race]);
    let setups: Vec<Setup> = engines.into_iter().map(dlx_bug_setup).collect();
    let runs = lab.sweep(&dlx_suite(full), &setups);
    let (races, singles) = runs.split_last().expect("the race is the last setup");
    let (mut decided, mut covered, mut within_median) = (0, 0, 0);
    let (mut best_s, mut median_s) = (0.0, 0.0);
    let mut wins: BTreeMap<String, usize> = BTreeMap::new();
    for (d, race) in races.iter().enumerate() {
        let single = singles.iter().map(|runs| &runs[d]).filter(|r| r.buggy());
        let mut times: Vec<f64> = single.map(|r| r.parts[0].solve_s).collect();
        times.sort_by(f64::total_cmp);
        decided += usize::from(!times.is_empty());
        covered += usize::from(times.is_empty() || race.buggy());
        if let (Some(best), Some(median)) = (times.first(), times.get(times.len() / 2)) {
            (best_s, median_s) = (best_s + best, median_s + median);
            within_median += usize::from(race.parts[0].solve_s <= median + 0.05);
        }
        let winner = race.parts[0].winner.as_deref().unwrap_or("none");
        *wins.entry(winner.to_owned()).or_default() += 1;
    }
    // Race members are cancelled mid-search: the race has no search counters.
    m.count("race.buggy", races.iter().filter(|r| r.buggy()).count());
    m.time("race.s", races.iter().map(Run::detection_s).sum());
    m.count("single.buggy", decided);
    m.check("race_decides_what_singles_do", covered == races.len());
    m.time("best_single.s", best_s);
    m.time("median_single.s", median_s);
    m.time("race_within_median_plus_50ms", within_median as f64);
    for (winner, count) in wins {
        m.time(format!("wins.{winner}"), count as f64);
    }
}

fn table2(lab: &mut Lab, m: &mut Measured, full: bool) {
    // Of the structural variations only base and ER run.  The AC and ER+AC
    // translations are reproducible (their Ackermann constraints come out in
    // symbol order) but are not part of the committed claim yet.
    let early_reduction = TranslationOptions::base().with_early_reduction();
    let mut setups = vec![
        chaff(VLIW_BUG_STEPS),
        chaff(VLIW_BUG_STEPS).with(early_reduction),
    ];
    setups.extend((1..=3).map(|i| setup(Engine::ChaffVariant(i), VLIW_BUG_STEPS)));
    let runs = lab.sweep(&vliw_suite(full), &setups);
    m.record("base", &runs[0]);
    // Setup 0 is the base run, 0-1 the structural variations and 0 plus 2-4
    // the parameter variations; runs in parallel cost their cheapest member.
    for (label, group) in [
        ("structural_base_er", &[0, 1][..]),
        ("parameter", &[0, 2, 3, 4]),
    ] {
        let cheapest = |d: usize| group.iter().map(|&s| runs[s][d].detection()).min();
        m.detections(label, (0..runs[0].len()).map(|d| cheapest(d).unwrap_or(0)));
    }
    let base = m.get("base.detect_sum");
    let structural = m.get("structural_base_er.detect_sum") < base;
    let parameter = m.get("parameter.detect_sum") < base;
    m.check("structural_runs_cut_detection_conflicts", structural);
    m.check("parameter_runs_cut_detection_conflicts", parameter);
}

fn table3(lab: &mut Lab, m: &mut Measured, full: bool) {
    let (labels, setups) = encodings(VLIW_BUG_STEPS);
    let runs = lab.sweep(&vliw_suite(full), &setups);
    for (label, runs) in labels.iter().zip(&runs) {
        m.record(label, runs);
    }
    let sum = |solver: &str, encoding: &str| m.get(&format!("{solver}.{encoding}.detect_sum"));
    let chaff = sum("chaff", "eij") <= sum("chaff", "sd");
    let berkmin = sum("berkmin", "eij") <= sum("berkmin", "sd");
    m.check("eij_detects_in_no_more_conflicts_chaff", chaff);
    m.check("eij_detects_in_no_more_conflicts_berkmin", berkmin);
}

fn fig10(lab: &mut Lab, m: &mut Measured, full: bool) {
    let (_, setups) = encodings(VLIW_BUG_STEPS);
    let runs = lab.sweep(&vliw_suite(full), &setups[2..]);
    let pairs = || runs[0].iter().zip(&runs[1]);
    let fewer = pairs().filter(|(e, s)| e.detection() <= s.detection());
    let (fewer, designs) = (fewer.count(), runs[0].len());
    m.count("berkmin.eij_no_more_conflicts", fewer);
    m.count("berkmin.designs", designs);
    m.check("eij_cheaper_on_the_majority", fewer * 2 >= designs);
}

fn table6(lab: &mut Lab, m: &mut Measured, full: bool) {
    let setups = [0, 8, 16].map(|criteria| chaff(VLIW_BUG_STEPS).split(criteria));
    let runs = lab.sweep(&vliw_suite(full), &setups);
    let labels = ["criteria_1", "criteria_8", "criteria_16"];
    for (label, runs) in labels.iter().zip(&runs) {
        m.record(label, runs);
    }
    let cut = m.get("criteria_16.detect_sum") < m.get("criteria_1.detect_sum");
    m.check("sixteen_criteria_cut_detection_conflicts", cut);
}

fn fig7(lab: &mut Lab, m: &mut Measured, full: bool) {
    let bdds = setup(Engine::Bdd(FIG7_BDD_NODES), 0).split(16);
    let runs = lab.sweep(&vliw_suite(full), &[chaff(VLIW_BUG_STEPS), bdds]);
    m.record("chaff", &runs[0]);
    m.record("bdd_16_criteria", &runs[1]);
    let parts = runs[1].iter().flat_map(|r| &r.parts);
    let unknown = |p: &&Part| matches!(p.verdict, Verdict::Unknown(_));
    let outs = parts.filter(unknown).count();
    m.count("bdd_16_criteria.node_limit_outs", outs);
    let (chaff, bdd) = (m.get("chaff.buggy"), m.get("bdd_16_criteria.buggy"));
    m.check("chaff_finds_every_bug", chaff == runs[0].len() as u64);
    m.check("chaff_finds_at_least_as_many_as_bdds", chaff >= bdd);
}

fn table7(lab: &mut Lab, m: &mut Measured, _full: bool) {
    let bugs = [
        VliwBug::EpcNotSaved,
        VliwBug::ExceptionIgnoredByWrite { slot: 0 },
        VliwBug::CfmUpdatedSpeculatively,
        VliwBug::NoSquashOnMispredict,
    ];
    let designs = bugs.map(|bug| Design::Vliw(VliwConfig::with_exceptions(), Some(bug)));
    let setups = [chaff(VLIW_BUG_STEPS), chaff(VLIW_BUG_STEPS).split(20)];
    let runs = lab.sweep(&designs, &setups);
    for d in 0..designs.len() {
        m.record(&format!("bug{}.monolithic", d + 1), &runs[0][d..=d]);
        m.record(&format!("bug{}.criteria_20", d + 1), &runs[1][d..=d]);
    }
    let pairs = || runs[0].iter().zip(&runs[1]);
    let detected = pairs().all(|(mono, _)| mono.buggy());
    let no_later = pairs().all(|(mono, split)| split.detection() <= mono.detection());
    m.check("all_four_bugs_detected", detected);
    m.check("weak_criteria_detect_no_later", no_later);
}

/// Chaff and BerkMin proofs of the correct out-of-order designs under both
/// encodings (Tables 4 and 5 share them), with their widths and labels.
fn ooo_proofs(lab: &mut Lab, full: bool) -> (Vec<usize>, [&'static str; 4], Vec<Vec<Run>>) {
    let widths: Vec<usize> = (2..=if full { 6 } else { 5 }).collect();
    let designs: Vec<Design> = widths.iter().map(|&w| Design::Ooo(w)).collect();
    let (labels, setups) = encodings(PROOF_STEPS);
    (widths, labels, lab.sweep(&designs, &setups))
}

fn table4(lab: &mut Lab, m: &mut Measured, full: bool) {
    let (widths, _, runs) = ooo_proofs(lab, full);
    let mut more_primary = true;
    for (d, width) in widths.iter().enumerate() {
        let (eij, sd) = (runs[0][d].sizes(), runs[1][d].sizes());
        m.sizes(&format!("w{width}.eij"), eij);
        m.sizes(&format!("w{width}.sd"), sd);
        more_primary &= eij.primary_bool_vars >= sd.primary_bool_vars;
    }
    m.check("eij_has_at_least_as_many_primary_vars", more_primary);
}

fn table5(lab: &mut Lab, m: &mut Measured, full: bool) {
    let (widths, labels, runs) = ooo_proofs(lab, full);
    let mut eij_within = true;
    for (d, width) in widths.iter().enumerate() {
        for (runs, label) in runs.iter().zip(labels) {
            m.record(&format!("w{width}.{label}"), &runs[d..=d]);
        }
        eij_within &= runs[0][d].conflicts() * 2 <= runs[1][d].conflicts() * 3;
    }
    m.check("every_design_proven_correct", all_proven(&runs));
    m.check("eij_within_1.5x_small_domain_conflicts_chaff", eij_within);
}

fn table8(lab: &mut Lab, m: &mut Measured, _full: bool) {
    let (mut proven, mut cut) = (true, true);
    for (config, splits) in [
        (VliwConfig::base(), [0, 8, 16]),
        (VliwConfig::with_exceptions(), [0, 11, 22]),
    ] {
        let setups = splits.map(|n| chaff(PROOF_STEPS).split(n));
        let runs = lab.sweep(&[Design::Vliw(config, None)], &setups);
        let mut costliest = Vec::new();
        for (n, runs) in splits.iter().zip(&runs) {
            let label = format!("{}.criteria_{}", config.name(), n.max(&1));
            let parts = &runs[0].parts;
            let max = |f: fn(&Part) -> u64| parts.iter().map(f).max().unwrap_or(0);
            let primary = max(|p| p.sizes.primary_bool_vars as u64);
            let top = max(|p| p.stats.conflicts);
            costliest.push(top);
            m.record(&label, runs);
            m.count(format!("{label}.obligations"), parts.len());
            m.count(format!("{label}.costliest_conflicts"), top);
            m.count(format!("{label}.primary_vars_max"), primary);
        }
        proven &= all_proven(&runs);
        cut &= costliest[1..].iter().all(|&c| c <= costliest[0]);
    }
    m.check("every_criterion_proven", proven);
    m.check("weak_criteria_cut_the_costliest_proof", cut);
}

fn approx(lab: &mut Lab, m: &mut Measured, _full: bool) {
    let (mut boxes, mut abstracted) = (TranslationOptions::base(), TranslationOptions::base());
    boxes.translation_boxes = vec!["pc".to_owned(), "cfm".to_owned()];
    abstracted.abstract_memories = vec!["alat".to_owned()];
    let options = [TranslationOptions::base(), boxes, abstracted];
    let setups = options.map(|options| chaff(PROOF_STEPS).with(options));
    let design = Design::Vliw(VliwConfig::with_exceptions(), None);
    let runs = lab.sweep(&[design], &setups);
    let labels = ["none", "translation_boxes", "abstract_alat"];
    for (label, runs) in labels.iter().zip(&runs) {
        m.record(label, runs);
        m.count(format!("{label}.cnf_vars"), runs[0].sizes().cnf_vars);
    }
    m.check("no_false_negatives", all_proven(&runs));
}

fn cnf_stats(lab: &mut Lab, m: &mut Measured, _full: bool) {
    let dlx = |c: DlxConfig| (c.name(), Design::Dlx(c, None));
    let designs = [
        dlx(DlxConfig::single_issue()),
        dlx(DlxConfig::dual_issue()),
        dlx(DlxConfig::dual_issue_full()),
        ("9VLIW-MC-BP", Design::Vliw(VliwConfig::base(), None)),
    ];
    let setups = [Chaff, BerkMin].map(|kind| setup(Engine::Sat(kind), PROOF_STEPS));
    let runs = lab.sweep(&designs.map(|d| d.1), &setups);
    for (d, (name, _)) in designs.iter().enumerate() {
        m.sizes(name, runs[0][d].sizes());
        m.record(&format!("{name}.chaff"), &runs[0][d..=d]);
        m.record(&format!("{name}.berkmin"), &runs[1][d..=d]);
    }
    let grow = runs[0].iter().map(|r| r.sizes().cnf_clauses).is_sorted();
    m.check("every_correct_design_proven", all_proven(&runs));
    m.check("clauses_grow_with_the_design", grow);
}

fn table9(lab: &mut Lab, m: &mut Measured, _full: bool) {
    let (dlx1, dlx2) = (DlxConfig::single_issue(), DlxConfig::dual_issue_full());
    let vliw = VliwConfig::base();
    let first_bug = |c| Some(dlx::bug_catalog(c)[0]);
    let (bug1, bug2) = (first_bug(dlx1), first_bug(dlx2));
    let vliw_bug = Some(vliw::bug_catalog(vliw)[0]);
    let designs = [
        ("1xDLX-C", Design::Dlx(dlx1, None)),
        ("1xDLX-C-buggy", Design::Dlx(dlx1, bug1)),
        ("2xDLX-CC-MC-EX-BP", Design::Dlx(dlx2, None)),
        ("2xDLX-CC-MC-EX-BP-buggy", Design::Dlx(dlx2, bug2)),
        ("9VLIW-MC-BP", Design::Vliw(vliw, None)),
        ("9VLIW-MC-BP-buggy", Design::Vliw(vliw, vliw_bug)),
    ];
    let without = TranslationOptions::base().without_positive_equality();
    let setups = [chaff(PROOF_STEPS), chaff(NO_PE_STEPS).with(without)];
    let runs = lab.sweep(&designs.map(|d| d.1), &setups);
    let (mut decided, mut never_cheaper) = (true, true);
    for (d, (name, _)) in designs.iter().enumerate() {
        let (with, without) = (&runs[0][d], &runs[1][d]);
        m.record(&format!("{name}.pe"), &runs[0][d..=d]);
        m.record(&format!("{name}.no_pe"), &runs[1][d..=d]);
        m.count(format!("{name}.pe.cnf_vars"), with.sizes().cnf_vars);
        m.count(format!("{name}.no_pe.cnf_vars"), without.sizes().cnf_vars);
        decided &= with.buggy() || with.proven();
        let undecided = !without.buggy() && !without.proven();
        never_cheaper &= undecided || without.conflicts() >= with.conflicts();
    }
    m.check("every_design_decided_with_pe", decided);
    m.check("no_pe_never_cheaper", never_cheaper);
}

/// Grades a row: `pass` when every check holds, `deviation` (with reasons)
/// when `deviations` lists every failing check, else `fail`.
fn grade<'a>(
    checks: &[(&str, bool)],
    deviations: &[(&str, &'a str)],
) -> (&'static str, Vec<&'a str>) {
    let failed: Vec<&str> = checks.iter().filter(|c| !c.1).map(|c| c.0).collect();
    let listed = deviations.iter().filter(|d| failed.contains(&d.0));
    let reasons: Vec<&str> = listed.map(|d| d.1).collect();
    let verdict = match (failed.len(), reasons.len()) {
        (0, _) => "pass",
        (failed, listed) if failed == listed => "deviation",
        _ => "fail",
    };
    (verdict, reasons)
}

/// The process exit status: 1 if any row failed.
fn exit_status(verdicts: &[&str]) -> i32 {
    i32::from(verdicts.contains(&"fail"))
}

/// A JSON object of `(key, value)` pairs.
fn object<V: std::fmt::Display>(items: impl Iterator<Item = (String, V)>) -> String {
    let items: Vec<String> = items.map(|(k, v)| format!("{}: {v}", quoted(&k))).collect();
    format!("{{{}}}", items.join(", "))
}

fn row_json(claim: &Claim, m: &Measured, verdict: &str, reasons: &[&str], wall_s: f64) -> String {
    let checks = object(m.checks.iter().map(|&(k, v)| (k.to_owned(), v)));
    let counters = object(m.counters.iter().cloned());
    let wall = ("wall_s".to_owned(), (wall_s * 1e3).round() / 1e3);
    let timing = object(std::iter::once(wall).chain(m.timing.iter().cloned()));
    let reason = Some(reasons.join(" ")).filter(|r| !r.is_empty());
    let (reason, verdict) = (
        reason.map_or("null".to_owned(), |r| quoted(&r)),
        quoted(verdict),
    );
    let (id, paper) = (quoted(claim.id), quoted(claim.paper));
    let ours = quoted(&m.ours(claim.show));
    format!(
        "    {{\"id\": {id}, \"verdict\": {verdict}, \"reason\": {reason},\n     \
         \"paper\": {paper},\n     \"ours\": {ours},\n     \"checks\": {checks},\n     \
         \"counters\": {counters},\n     \"timing\": {timing}}}"
    )
}

fn usage(problem: &str) -> ! {
    let ids: Vec<&str> = CLAIMS.iter().map(|c| c.id).collect();
    let usage = "usage: paper [--only id,...] [--full] [--out PATH]";
    eprintln!("paper: {problem}; {usage}; claim ids: {}", ids.join(","));
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut full, mut only, mut out) = (false, None, "BENCH_paper.json".to_owned());
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--only" => only = Some(args.next().unwrap_or_else(|| usage("--only needs ids"))),
            "--out" => out = args.next().unwrap_or_else(|| usage("--out needs a path")),
            other => usage(&format!("unexpected argument {other:?}")),
        }
    }
    let only: Option<Vec<&str>> = only.as_deref().map(|ids| ids.split(',').collect());
    let known = |id: &&str| CLAIMS.iter().any(|c| c.id == *id);
    if let Some(id) = only.iter().flatten().find(|id| !known(id)) {
        usage(&format!("unknown claim {id:?}"));
    }
    let chosen = |c: &&Claim| only.as_ref().is_none_or(|o| o.contains(&c.id));

    let start = Instant::now();
    let mut lab = Lab::default();
    let (mut rows, mut verdicts) = (Vec::new(), Vec::new());
    println!("claim      verdict    wall s  ours / paper");
    for claim in CLAIMS.iter().filter(chosen) {
        let claim_start = Instant::now();
        let mut measured = Measured::default();
        (claim.measure)(&mut lab, &mut measured, full);
        let ours = measured.ours(claim.show);
        let wall_s = claim_start.elapsed().as_secs_f64();
        let (verdict, reasons) = grade(&measured.checks, claim.deviations);
        let id = claim.id;
        println!("{id:<10} {verdict:<9} {wall_s:>7.1}  {ours}");
        println!("{:<28}  paper: {}", "", claim.paper);
        let failed = measured.checks.iter().filter(|c| !c.1);
        let failed: Vec<&str> = failed.map(|c| c.0).collect();
        if !failed.is_empty() {
            let note = format!("failed: {}; {}", failed.join(", "), reasons.join(" "));
            println!("{:<28}  {note}", "");
        }
        rows.push(row_json(claim, &measured, verdict, &reasons, wall_s));
        verdicts.push(verdict);
    }
    let (total_s, claims) = (start.elapsed().as_secs_f64(), rows.len());
    let (solves, reused) = (lab.runs.len(), lab.reused);
    println!("{claims} claims, {solves} distinct solves, {reused} reused, {total_s:.1} s");
    let rows = rows.join(",\n");
    let doc = format!(
        "{{\n  \"harness\": \"paper\",\n  \"full\": {full},\n  \"solves\": {solves},\n  \
         \"reused\": {reused},\n  \"timing\": {{\"wall_s\": {total_s:.3}}},\n  \
         \"rows\": [\n{rows}\n  ]\n}}\n"
    );
    if let Err(e) = std::fs::write(&out, doc) {
        eprintln!("paper: cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!("paper: wrote {out}");
    std::process::exit(exit_status(&verdicts));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failing_check_fails_the_run_unless_the_claim_lists_it() {
        let checks = [("holds", true), ("broken", false)];
        let (verdict, reasons) = grade(&checks, &[]);
        assert_eq!((verdict, reasons.len()), ("fail", 0));
        assert_eq!(exit_status(&["pass", verdict, "deviation"]), 1);

        let (verdict, reasons) = grade(&checks, &[("broken", "measured cause")]);
        assert_eq!((verdict, reasons), ("deviation", vec!["measured cause"]));
        assert_eq!(exit_status(&["pass", verdict]), 0);

        // A listed deviation excuses no other failing check.
        let stale = [("holds", "stale")];
        assert_eq!(grade(&checks, &stale).0, "fail");
        assert_eq!(grade(&checks[..1], &stale).0, "pass");
    }
}
