//! The workloads: which designs each one verifies, in which seeded order, and
//! the verdict every job must produce (the oracle).
//!
//! Every workload's inputs come from the paper's designs and the models'
//! deterministic bug catalogs.  The seed only permutes the job order, so two
//! seeds do the same work and their timings are comparable.  Setup scans the
//! catalogs, fingerprints every entry with [`velv_core::problem_fingerprint`]
//! and re-asserts the facts the workloads rely on: if a catalog changes,
//! setup fails instead of a workload changing silently.

use std::collections::BTreeSet;
use velv_core::{problem_fingerprint, TranslationOptions, Verifier};
use velv_eufm::Fingerprint;
use velv_models::{dlx, vliw};
use velv_sat::rng::SmallRng;
use velv_serve::{DlxVariant, ModelRef};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Monolithic proofs of correct designs: CDCL search dominates.
    Proof,
    /// The bug catalogs, one job per distinct buggy problem: translation and
    /// per-job overhead show.
    BugSweep,
    /// Certified verdicts: DRAT replay in `velv_proof` dominates.
    Certify,
    /// A closed-loop client submitting single jobs to the service: the only
    /// workload with verdict-cache hits.
    ServeCatalog,
    /// One `submit_batch` of a whole catalog: the service's batch path.
    ServeBatch,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 5] = [
        Workload::Proof,
        Workload::BugSweep,
        Workload::Certify,
        Workload::ServeCatalog,
        Workload::ServeBatch,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Proof => "proof",
            Workload::BugSweep => "bug-sweep",
            Workload::Certify => "certify",
            Workload::ServeCatalog => "serve-catalog",
            Workload::ServeBatch => "serve-batch",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The verdict a job must produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// The design satisfies the correctness criterion.
    Correct,
    /// The design has an injected bug.
    Buggy,
}

/// Which correctness criterion the direct path checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Criterion {
    /// The monolithic Burch–Dill criterion.
    Monolithic,
    /// The weak criteria of `Verifier::translate_obligations` with this
    /// obligation bound; the design is correct iff every obligation is.
    Weak(usize),
}

/// One verification job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Job {
    /// The design.
    pub model: ModelRef,
    /// The criterion checked on the direct path (service jobs are always
    /// monolithic).
    pub criterion: Criterion,
    /// The oracle's verdict.
    pub expect: Expect,
}

impl Job {
    fn new(model: ModelRef, expect: Expect) -> Job {
        Job {
            model,
            criterion: Criterion::Monolithic,
            expect,
        }
    }

    /// The job's name in failure reports and traces.
    pub fn name(&self) -> String {
        match self.criterion {
            Criterion::Monolithic => self.model.to_wire(),
            Criterion::Weak(bound) => format!("{}/weak{bound}", self.model.to_wire()),
        }
    }
}

/// A catalog family: one design configuration and its bug catalog.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Family {
    Dlx1,
    Dlx2,
    Dlx2f,
    Vliw,
    Vliwx,
}

const FAMILIES: [Family; 5] = [
    Family::Dlx1,
    Family::Dlx2,
    Family::Dlx2f,
    Family::Vliw,
    Family::Vliwx,
];

impl Family {
    fn model(self, bug: Option<usize>) -> ModelRef {
        match self {
            Family::Dlx1 => ModelRef::Dlx {
                config: DlxVariant::Single,
                bug,
            },
            Family::Dlx2 => ModelRef::Dlx {
                config: DlxVariant::Dual,
                bug,
            },
            Family::Dlx2f => ModelRef::Dlx {
                config: DlxVariant::DualFull,
                bug,
            },
            Family::Vliw => ModelRef::Vliw {
                exceptions: false,
                bug,
            },
            Family::Vliwx => ModelRef::Vliw {
                exceptions: true,
                bug,
            },
        }
    }

    fn catalog_len(self) -> usize {
        match self {
            Family::Dlx1 => dlx::bug_catalog(DlxVariant::Single.config()).len(),
            Family::Dlx2 => dlx::bug_catalog(DlxVariant::Dual.config()).len(),
            Family::Dlx2f => dlx::bug_catalog(DlxVariant::DualFull.config()).len(),
            Family::Vliw => vliw::bug_catalog(vliw::VliwConfig::base()).len(),
            Family::Vliwx => vliw::bug_catalog(vliw::VliwConfig::with_exceptions()).len(),
        }
    }

    /// Bug-sweep jobs of the family: catalog entries whose problem is
    /// distinct from every earlier entry and from the correct design.
    fn expected_sweep_jobs(self) -> usize {
        match self {
            Family::Dlx1 => 18,
            Family::Dlx2 => 35,
            Family::Dlx2f => 39,
            Family::Vliw => 27,
            Family::Vliwx => 34,
        }
    }

    /// Catalog entries whose problem is structurally identical to the
    /// correct design's, so their correct verdict is `Correct`: the VLIW
    /// bugs of slots 6–8 (`RemapMissing`, `WrongDestinationField`,
    /// `ExceptionIgnoredByWrite`) and their padded repeats.  They are
    /// excluded from every workload.
    fn same_as_correct(self) -> &'static [usize] {
        match self {
            Family::Dlx1 | Family::Dlx2 | Family::Dlx2f => &[],
            Family::Vliw => &[
                21, 22, 24, 25, 27, 28, 40, 41, 49, 50, 58, 59, 67, 68, 76, 77, 85, 86, 94, 95,
            ],
            Family::Vliwx => &[
                27, 28, 29, 31, 32, 33, 35, 36, 37, 50, 51, 59, 60, 68, 69, 77, 78, 86, 87, 95, 96,
            ],
        }
    }
}

/// The fingerprints of one family's correct design and catalog entries.
struct FamilyScan {
    family: Family,
    correct: Fingerprint,
    bugs: Vec<Fingerprint>,
}

impl FamilyScan {
    fn scan(family: Family) -> FamilyScan {
        FamilyScan {
            family,
            correct: fingerprint(family.model(None)),
            bugs: (0..family.catalog_len())
                .map(|i| fingerprint(family.model(Some(i))))
                .collect(),
        }
    }

    /// First occurrences of each fingerprint that differs from the correct
    /// design's, in catalog order.
    fn sweep_jobs(&self) -> Vec<usize> {
        let mut seen = BTreeSet::from([self.correct.0]);
        (0..self.bugs.len())
            .filter(|&i| seen.insert(self.bugs[i].0))
            .collect()
    }

    fn distinct_bugs(&self) -> usize {
        self.bugs.iter().map(|f| f.0).collect::<BTreeSet<_>>().len()
    }

    /// Re-asserts the catalog facts the workloads are built on.
    fn check(&self) -> Result<(), String> {
        let family = self.family;
        let same: Vec<usize> = (0..self.bugs.len())
            .filter(|&i| self.bugs[i] == self.correct)
            .collect();
        if same != family.same_as_correct() {
            return Err(format!(
                "{family:?}: catalog entries identical to the correct design are {same:?}, \
                 expected {:?}",
                family.same_as_correct()
            ));
        }
        let jobs = self.sweep_jobs().len();
        if jobs != family.expected_sweep_jobs() {
            return Err(format!(
                "{family:?}: {jobs} distinct buggy problems, expected {}",
                family.expected_sweep_jobs()
            ));
        }
        Ok(())
    }
}

fn fingerprint(model: ModelRef) -> Fingerprint {
    let options = TranslationOptions::default();
    let (implementation, specification) = model
        .build()
        .expect("catalog indices come from the catalog's own length");
    let problem = Verifier::new(options.clone())
        .build_problem(implementation.as_ref(), specification.as_ref());
    problem_fingerprint(&problem, &options)
}

/// Jobs of the `serve-catalog` workload that repeat an earlier job's
/// problem: its cache hits.
const SERVE_CATALOG_REPEATS: usize = 127;

/// Scans the catalogs, checks the oracle's catalog facts and builds the
/// workload's job list in the order given by `seed` (`serve-batch` keeps
/// catalog order).  `smoke` shrinks every workload to the single-issue DLX.
///
/// # Errors
///
/// Fails when a catalog no longer matches the facts the workloads were
/// defined on.
pub fn generate(workload: Workload, seed: u64, smoke: bool) -> Result<Vec<Job>, String> {
    let families: &[Family] = if smoke { &[Family::Dlx1] } else { &FAMILIES };
    let scans: Vec<FamilyScan> = families.iter().map(|&f| FamilyScan::scan(f)).collect();
    for scan in &scans {
        scan.check()?;
    }
    let sweep: Vec<Job> = scans
        .iter()
        .flat_map(|scan| {
            scan.sweep_jobs()
                .into_iter()
                .map(|i| Job::new(scan.family.model(Some(i)), Expect::Buggy))
        })
        .collect();
    let catalog = |family: Family| {
        (0..family.catalog_len()).map(move |i| Job::new(family.model(Some(i)), Expect::Buggy))
    };
    let correct = |model: ModelRef| Job::new(model, Expect::Correct);
    let ooo = |width: usize| correct(ModelRef::Ooo { width });

    let mut jobs: Vec<Job> = match workload {
        Workload::Proof if smoke => vec![correct(Family::Dlx1.model(None)), ooo(2), ooo(3)],
        // OOO-4..6 are left out: the eager check decides them `Buggy`
        // (see the README); `certify` covers them.
        Workload::Proof => vec![
            correct(Family::Dlx1.model(None)),
            correct(Family::Dlx2f.model(None)),
            correct(Family::Vliwx.model(None)),
            ooo(2),
            ooo(3),
        ],
        Workload::BugSweep => sweep,
        Workload::Certify if smoke => vec![correct(Family::Dlx1.model(None))],
        Workload::Certify => {
            let mut jobs = vec![
                Job {
                    model: Family::Dlx2.model(None),
                    criterion: Criterion::Weak(16),
                    expect: Expect::Correct,
                },
                correct(Family::Dlx1.model(None)),
            ];
            jobs.extend((2..=6).map(ooo));
            // The first bug-sweep job of every family.
            for scan in &scans {
                let first = scan.sweep_jobs()[0];
                jobs.push(Job::new(scan.family.model(Some(first)), Expect::Buggy));
            }
            jobs
        }
        Workload::ServeCatalog if smoke => catalog(Family::Dlx1).collect(),
        Workload::ServeCatalog => {
            let dlx = &scans[..3];
            let jobs: usize = dlx.iter().map(|s| s.bugs.len()).sum();
            let repeats = jobs - dlx.iter().map(FamilyScan::distinct_bugs).sum::<usize>();
            if repeats != SERVE_CATALOG_REPEATS {
                return Err(format!(
                    "serve-catalog: {repeats} jobs repeat a problem, expected \
                     {SERVE_CATALOG_REPEATS}"
                ));
            }
            [Family::Dlx1, Family::Dlx2, Family::Dlx2f]
                .into_iter()
                .flat_map(catalog)
                .collect()
        }
        // A batch keeps catalog order whatever the seed: the shared
        // session's search depends on the entry order (6.4 s in catalog
        // order, 15.3 s in one shuffled order), so shuffling would turn
        // the seed into the measured variable.
        Workload::ServeBatch => {
            let family = if smoke { Family::Dlx1 } else { Family::Dlx2 };
            return Ok(catalog(family).collect());
        }
    };
    shuffle(&mut jobs, seed);
    Ok(jobs)
}

/// Fisher–Yates shuffle driven by the repository's SplitMix64 generator.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_one_job_list_and_seeds_differ() {
        for workload in Workload::ALL {
            let a = generate(workload, 7, true).unwrap();
            let b = generate(workload, 7, true).unwrap();
            assert_eq!(a, b, "{}", workload.name());
        }
        for workload in [Workload::BugSweep, Workload::ServeCatalog] {
            let a = generate(workload, 1, true).unwrap();
            let b = generate(workload, 2, true).unwrap();
            assert_ne!(a, b, "{}", workload.name());
            let names = |jobs: &[Job]| {
                let mut names: Vec<String> = jobs.iter().map(Job::name).collect();
                names.sort();
                names
            };
            assert_eq!(names(&a), names(&b), "seeds only permute the jobs");
        }
    }

    #[test]
    fn bug_sweep_is_153_distinct_buggy_problems() {
        let _serial = crate::cpu_heavy_test();
        let jobs = generate(Workload::BugSweep, 1, false).unwrap();
        assert_eq!(jobs.len(), 153);
        let mut fingerprints = BTreeSet::new();
        for job in &jobs {
            assert_eq!(job.expect, Expect::Buggy);
            assert!(
                fingerprints.insert(fingerprint(job.model).0),
                "{} repeats a problem",
                job.name()
            );
        }
        for family in FAMILIES {
            assert!(
                !fingerprints.contains(&fingerprint(family.model(None)).0),
                "{family:?}: a sweep job is the correct design"
            );
        }
    }
}
