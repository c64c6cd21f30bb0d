//! Job specifications: what a client asks the service to verify, and how.
//!
//! A [`JobSpec`] names a design from the benchmark catalog ([`ModelRef`]), the
//! translation options, the back end ([`BackendChoice`]), the scheduling mode
//! ([`SolveMode`]), and per-job limits (priority, deadline, conflict budget).
//! Every field has a stable wire encoding (`key=value` tokens on one line) so
//! the same spec can be submitted in-process through
//! [`ServeHandle`](crate::ServeHandle) or over TCP through `velvc`.
//!
//! The *identity* of a job — the key of the verdict cache and of in-flight
//! deduplication — is **not** this description: it is the structural
//! fingerprint of the built correctness formula
//! ([`velv_core::problem_fingerprint`]) combined with the canonical encodings
//! of the options, back end and mode ([`JobSpec::salt`]).  Two differently
//! phrased submissions of structurally identical work therefore collide.
//!
//! Certification and kept proofs are CDCL-only: they rest on the DRAT proof
//! the CDCL presets log.  The service rejects a spec asking for either on
//! another back end, and a kept proof on a decomposed job, at admission
//! ([`ServeHandle::submit`](crate::ServeHandle::submit)); parsing stays
//! purely syntactic.

use std::fmt;
use std::time::Duration;
use velv_core::{Backend, TranslationOptions};
use velv_hdl::Processor;
use velv_models::dlx::{self, Dlx, DlxConfig, DlxSpecification};
use velv_models::ooo::{Ooo, OooSpecification};
use velv_models::vliw::{self, Vliw, VliwConfig, VliwSpecification};
use velv_sat::presets::SolverKind;

/// A parse error of a wire-encoded job, model or option field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseJobError {
    /// What could not be parsed, with the offending token.
    pub message: String,
}

impl fmt::Display for ParseJobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ParseJobError {}

fn parse_err(message: impl Into<String>) -> ParseJobError {
    ParseJobError {
        message: message.into(),
    }
}

/// A design from the benchmark catalog.
///
/// Wire syntax (see [`ModelRef::to_wire`]):
///
/// * `dlx1:correct`, `dlx2:bug:7`, `dlx2f:correct` — the DLX pipelines
///   (single issue, dual issue, dual issue + exceptions/branch prediction),
///   correct or with bug `i` of [`dlx::bug_catalog`];
/// * `vliw:correct`, `vliwx:bug:3` — the VLIW design (base / with
///   exceptions), correct or with bug `i` of [`vliw::bug_catalog`];
/// * `ooo:2` — the out-of-order core of the given width (correct design).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelRef {
    /// A DLX pipeline.
    Dlx {
        /// Which DLX configuration.
        config: DlxVariant,
        /// `None` for the correct design, `Some(i)` for catalog bug `i`.
        bug: Option<usize>,
    },
    /// The VLIW design.
    Vliw {
        /// Model precise exceptions.
        exceptions: bool,
        /// `None` for the correct design, `Some(i)` for catalog bug `i`.
        bug: Option<usize>,
    },
    /// The out-of-order core (correct design only).
    Ooo {
        /// Issue width.
        width: usize,
    },
}

/// The three DLX configurations of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DlxVariant {
    /// 1×DLX-C.
    Single,
    /// 2×DLX-CC.
    Dual,
    /// 2×DLX-CC-MC-EX-BP.
    DualFull,
}

impl DlxVariant {
    /// The matching [`DlxConfig`].
    pub fn config(self) -> DlxConfig {
        match self {
            DlxVariant::Single => DlxConfig::single_issue(),
            DlxVariant::Dual => DlxConfig::dual_issue(),
            DlxVariant::DualFull => DlxConfig::dual_issue_full(),
        }
    }

    fn token(self) -> &'static str {
        match self {
            DlxVariant::Single => "dlx1",
            DlxVariant::Dual => "dlx2",
            DlxVariant::DualFull => "dlx2f",
        }
    }
}

impl ModelRef {
    /// Shorthand for the correct single-issue DLX.
    pub fn dlx1_correct() -> Self {
        ModelRef::Dlx {
            config: DlxVariant::Single,
            bug: None,
        }
    }

    /// Shorthand for single-issue DLX catalog bug `i`.
    pub fn dlx1_bug(i: usize) -> Self {
        ModelRef::Dlx {
            config: DlxVariant::Single,
            bug: Some(i),
        }
    }

    /// Builds the implementation/specification pair.
    ///
    /// # Errors
    ///
    /// Fails when a bug index is out of range for the catalog.
    #[allow(clippy::type_complexity)]
    pub fn build(&self) -> Result<(Box<dyn Processor>, Box<dyn Processor>), ParseJobError> {
        match *self {
            ModelRef::Dlx { config, bug } => {
                let cfg = config.config();
                let implementation: Dlx = match bug {
                    None => Dlx::correct(cfg),
                    Some(i) => {
                        let catalog = dlx::bug_catalog(cfg);
                        let bug = *catalog.get(i).ok_or_else(|| {
                            parse_err(format!(
                                "dlx bug index {i} out of range (catalog has {})",
                                catalog.len()
                            ))
                        })?;
                        Dlx::buggy(cfg, bug)
                    }
                };
                Ok((
                    Box::new(implementation),
                    Box::new(DlxSpecification::new(cfg)),
                ))
            }
            ModelRef::Vliw { exceptions, bug } => {
                let cfg = if exceptions {
                    VliwConfig::with_exceptions()
                } else {
                    VliwConfig::base()
                };
                let implementation: Vliw = match bug {
                    None => Vliw::correct(cfg),
                    Some(i) => {
                        let catalog = vliw::bug_catalog(cfg);
                        let bug = *catalog.get(i).ok_or_else(|| {
                            parse_err(format!(
                                "vliw bug index {i} out of range (catalog has {})",
                                catalog.len()
                            ))
                        })?;
                        Vliw::buggy(cfg, bug)
                    }
                };
                Ok((
                    Box::new(implementation),
                    Box::new(VliwSpecification::new(cfg)),
                ))
            }
            ModelRef::Ooo { width } => {
                if width == 0 || width > 8 {
                    return Err(parse_err(format!("ooo width {width} out of range (1..=8)")));
                }
                Ok((Box::new(Ooo::new(width)), Box::new(OooSpecification::new())))
            }
        }
    }

    /// The wire encoding (see the type docs).
    pub fn to_wire(&self) -> String {
        match *self {
            ModelRef::Dlx { config, bug } => match bug {
                None => format!("{}:correct", config.token()),
                Some(i) => format!("{}:bug:{i}", config.token()),
            },
            ModelRef::Vliw { exceptions, bug } => {
                let base = if exceptions { "vliwx" } else { "vliw" };
                match bug {
                    None => format!("{base}:correct"),
                    Some(i) => format!("{base}:bug:{i}"),
                }
            }
            ModelRef::Ooo { width } => format!("ooo:{width}"),
        }
    }

    /// Parses the wire encoding.
    ///
    /// # Errors
    ///
    /// Fails on unknown designs or malformed bug/width fields.
    pub fn parse_wire(text: &str) -> Result<Self, ParseJobError> {
        let mut parts = text.split(':');
        let family = parts.next().unwrap_or("");
        let parse_bug =
            |parts: &mut std::str::Split<'_, char>| -> Result<Option<usize>, ParseJobError> {
                match parts.next() {
                    Some("correct") | None => Ok(None),
                    Some("bug") => {
                        let index = parts
                            .next()
                            .ok_or_else(|| parse_err(format!("missing bug index in `{text}`")))?;
                        index
                            .parse::<usize>()
                            .map(Some)
                            .map_err(|_| parse_err(format!("bad bug index in `{text}`")))
                    }
                    Some(other) => Err(parse_err(format!(
                        "unknown model field `{other}` in `{text}`"
                    ))),
                }
            };
        let model = match family {
            "dlx1" | "dlx2" | "dlx2f" => {
                let config = match family {
                    "dlx1" => DlxVariant::Single,
                    "dlx2" => DlxVariant::Dual,
                    _ => DlxVariant::DualFull,
                };
                ModelRef::Dlx {
                    config,
                    bug: parse_bug(&mut parts)?,
                }
            }
            "vliw" | "vliwx" => ModelRef::Vliw {
                exceptions: family == "vliwx",
                bug: parse_bug(&mut parts)?,
            },
            "ooo" => {
                let width = parts
                    .next()
                    .ok_or_else(|| parse_err(format!("missing ooo width in `{text}`")))?
                    .parse::<usize>()
                    .map_err(|_| parse_err(format!("bad ooo width in `{text}`")))?;
                ModelRef::Ooo { width }
            }
            other => return Err(parse_err(format!("unknown model family `{other}`"))),
        };
        if parts.next().is_some() {
            return Err(parse_err(format!("trailing model fields in `{text}`")));
        }
        Ok(model)
    }
}

impl fmt::Display for ModelRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_wire())
    }
}

/// Which back end decides a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendChoice {
    /// A single SAT preset.
    Sat(SolverKind),
    /// The default portfolio (strong CDCL presets racing the BDD build).
    Portfolio,
    /// The BDD back end.
    Bdd,
}

impl BackendChoice {
    /// The wire token ("chaff", "portfolio", ...).
    pub fn to_wire(self) -> &'static str {
        match self {
            BackendChoice::Sat(SolverKind::Chaff) => "chaff",
            BackendChoice::Sat(SolverKind::BerkMin) => "berkmin",
            BackendChoice::Sat(SolverKind::Grasp) => "grasp",
            BackendChoice::Sat(SolverKind::Sato) => "sato",
            BackendChoice::Sat(SolverKind::Dpll) => "dpll",
            BackendChoice::Sat(SolverKind::WalkSat) => "walksat",
            BackendChoice::Sat(SolverKind::Dlm) => "dlm",
            BackendChoice::Portfolio => "portfolio",
            BackendChoice::Bdd => "bdd",
        }
    }

    /// Parses the wire token.
    ///
    /// # Errors
    ///
    /// Fails on unknown back-end names.
    pub fn parse_wire(text: &str) -> Result<Self, ParseJobError> {
        Ok(match text {
            "chaff" => BackendChoice::Sat(SolverKind::Chaff),
            "berkmin" => BackendChoice::Sat(SolverKind::BerkMin),
            "grasp" => BackendChoice::Sat(SolverKind::Grasp),
            "sato" => BackendChoice::Sat(SolverKind::Sato),
            "dpll" => BackendChoice::Sat(SolverKind::Dpll),
            "walksat" => BackendChoice::Sat(SolverKind::WalkSat),
            "dlm" => BackendChoice::Sat(SolverKind::Dlm),
            "portfolio" => BackendChoice::Portfolio,
            "bdd" => BackendChoice::Bdd,
            other => return Err(parse_err(format!("unknown backend `{other}`"))),
        })
    }

    /// The engine configuration of a CDCL preset (the back ends that log
    /// proofs); `None` for every other choice.
    pub(crate) fn cdcl_config(self) -> Option<velv_sat::cdcl::CdclConfig> {
        match self {
            BackendChoice::Sat(kind) => kind.cdcl_config(),
            BackendChoice::Portfolio | BackendChoice::Bdd => None,
        }
    }
}

impl From<BackendChoice> for Backend {
    fn from(choice: BackendChoice) -> Backend {
        match choice {
            BackendChoice::Sat(kind) => Backend::Sat(kind),
            BackendChoice::Portfolio => Backend::default_portfolio(),
            BackendChoice::Bdd => Backend::Bdd {
                node_limit: Backend::DEFAULT_BDD_NODE_LIMIT,
            },
        }
    }
}

/// How the scheduler runs a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SolveMode {
    /// One monolithic correctness criterion, one back-end run.
    Monolithic,
    /// Decompose into at most `max_obligations` weak criteria
    /// ([`velv_core::Verifier::translate_obligations`]) and check them one
    /// by one on the back end named by [`JobSpec::backend`], in obligation
    /// order, stopping at the first falsified one.
    Decomposed {
        /// Obligation cap passed to the decomposition.
        max_obligations: usize,
    },
}

impl SolveMode {
    fn to_wire(self) -> String {
        match self {
            SolveMode::Monolithic => "mono".to_owned(),
            SolveMode::Decomposed { max_obligations } => format!("decomposed:{max_obligations}"),
        }
    }

    fn parse_wire(text: &str) -> Result<Self, ParseJobError> {
        if text == "mono" {
            return Ok(SolveMode::Monolithic);
        }
        if let Some(max) = text.strip_prefix("decomposed:") {
            return max
                .parse::<usize>()
                .map(|max_obligations| SolveMode::Decomposed { max_obligations })
                .map_err(|_| parse_err(format!("bad decomposition bound in `{text}`")));
        }
        Err(parse_err(format!("unknown mode `{text}`")))
    }
}

/// A verification job as submitted to the service.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// The design to verify.
    pub model: ModelRef,
    /// Translation options.
    pub options: TranslationOptions,
    /// Back end deciding the job (every obligation of a decomposed one).
    pub backend: BackendChoice,
    /// Scheduling mode.
    pub mode: SolveMode,
    /// Certify the verdict (DRAT proof replay / counterexample validation,
    /// see [`velv_core::CertifyOptions::full`]).  CDCL back ends only: the
    /// service rejects a certified job on any other back end.
    pub certified: bool,
    /// Keep the DRAT proof of an uncertified UNSAT verdict as a cache
    /// artifact (retrieved with the `proof` wire command).  Monolithic jobs
    /// on a CDCL back end only: the service rejects any other.  The
    /// artifact replays against the job's CNF as shipped, so it is omitted
    /// when the refutation needed transitivity refinement clauses.
    pub keep_proof: bool,
    /// Scheduling priority: higher runs first.
    pub priority: i32,
    /// Deadline, measured from submission.
    pub timeout: Option<Duration>,
    /// Conflict budget for the back end.
    pub max_conflicts: Option<u64>,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            model: ModelRef::dlx1_correct(),
            options: TranslationOptions::default(),
            backend: BackendChoice::Sat(SolverKind::Chaff),
            mode: SolveMode::Monolithic,
            certified: false,
            keep_proof: false,
            priority: 0,
            timeout: None,
            max_conflicts: None,
        }
    }
}

impl JobSpec {
    /// A default (chaff, monolithic) job for a model.
    pub fn new(model: ModelRef) -> Self {
        JobSpec {
            model,
            ..JobSpec::default()
        }
    }

    /// Sets the scheduling priority.
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the submission-relative deadline.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Rejects the specs the service cannot honour: certification or a
    /// kept proof on a back end that logs no proof, and a kept proof on a
    /// decomposed job, whose obligations each have their own CNF.
    pub(crate) fn check_runnable(&self) -> Result<(), ParseJobError> {
        let cdcl = self.backend.cdcl_config().is_some();
        for (asked, key) in [
            (self.certified, "certified"),
            (self.keep_proof, "keep-proof"),
        ] {
            if asked && !cdcl {
                return Err(parse_err(format!(
                    "{key}=1 needs a CDCL back end (chaff, berkmin, grasp or sato), got `{}`",
                    self.backend.to_wire()
                )));
            }
        }
        if self.keep_proof && self.mode != SolveMode::Monolithic {
            return Err(parse_err("keep-proof=1 needs mode=mono"));
        }
        Ok(())
    }

    /// The canonical *identity salt* of everything the structural problem
    /// fingerprint does not already cover: combined with
    /// [`velv_core::problem_fingerprint`] (which folds in the translation
    /// options), it keys the verdict cache.  Scheduling-only fields
    /// (priority, deadline, conflict budget) are deliberately excluded —
    /// they change when an answer is wanted, not what the answer is.
    pub fn salt(&self) -> String {
        format!(
            "backend={};mode={};certified={};proof={}",
            self.backend.to_wire(),
            self.mode.to_wire(),
            u8::from(self.certified),
            u8::from(self.keep_proof),
        )
    }

    /// The one-line wire encoding (`key=value` tokens, space-separated).
    pub fn to_wire(&self) -> String {
        let mut line = format!(
            "model={} backend={} mode={} options={}",
            self.model.to_wire(),
            self.backend.to_wire(),
            self.mode.to_wire(),
            options_to_wire(&self.options),
        );
        if self.certified {
            line.push_str(" certified=1");
        }
        if self.keep_proof {
            line.push_str(" keep-proof=1");
        }
        if self.priority != 0 {
            line.push_str(&format!(" priority={}", self.priority));
        }
        if let Some(timeout) = self.timeout {
            line.push_str(&format!(" timeout-ms={}", timeout.as_millis()));
        }
        if let Some(max) = self.max_conflicts {
            line.push_str(&format!(" max-conflicts={max}"));
        }
        line
    }

    /// Parses the one-line wire encoding.
    ///
    /// # Errors
    ///
    /// Fails on missing `model=`, unknown keys, or malformed values.
    pub fn parse_wire(line: &str) -> Result<Self, ParseJobError> {
        let mut spec = JobSpec::default();
        let mut saw_model = false;
        for token in line.split_whitespace() {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| parse_err(format!("expected key=value, got `{token}`")))?;
            match key {
                "model" => {
                    spec.model = ModelRef::parse_wire(value)?;
                    saw_model = true;
                }
                "backend" => spec.backend = BackendChoice::parse_wire(value)?,
                "mode" => spec.mode = SolveMode::parse_wire(value)?,
                "options" => spec.options = options_parse_wire(value)?,
                "certified" => spec.certified = parse_flag(key, value)?,
                "keep-proof" => spec.keep_proof = parse_flag(key, value)?,
                "priority" => {
                    spec.priority = value
                        .parse()
                        .map_err(|_| parse_err(format!("bad priority `{value}`")))?;
                }
                "timeout-ms" => {
                    let ms: u64 = value
                        .parse()
                        .map_err(|_| parse_err(format!("bad timeout-ms `{value}`")))?;
                    spec.timeout = Some(Duration::from_millis(ms));
                }
                "max-conflicts" => {
                    spec.max_conflicts = Some(
                        value
                            .parse()
                            .map_err(|_| parse_err(format!("bad max-conflicts `{value}`")))?,
                    );
                }
                other => return Err(parse_err(format!("unknown job key `{other}`"))),
            }
        }
        if !saw_model {
            return Err(parse_err("job line is missing `model=`"));
        }
        Ok(spec)
    }
}

fn parse_flag(key: &str, value: &str) -> Result<bool, ParseJobError> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(parse_err(format!("bad flag {key}={other} (want 0 or 1)"))),
    }
}

/// The wire encoding of the translation options: `pe:1,enc:eij,...`.  The
/// conservative-approximation lists (`abstract_memories`,
/// `translation_boxes`) are in-process-only and not wire-encodable.
fn options_to_wire(options: &TranslationOptions) -> String {
    use velv_core::{GEncoding, TransitivityMode, UpElimination};
    format!(
        "pe:{},enc:{},trans:{},up:{},er:{}",
        u8::from(options.positive_equality),
        match options.encoding {
            GEncoding::Eij => "eij",
            GEncoding::SmallDomain => "sd",
        },
        match options.transitivity {
            TransitivityMode::Eager => "eager",
            TransitivityMode::Lazy => "lazy",
        },
        match options.up_elimination {
            UpElimination::NestedIte => "ite",
            UpElimination::Ackermann => "ack",
        },
        u8::from(options.early_reduction),
    )
}

fn options_parse_wire(text: &str) -> Result<TranslationOptions, ParseJobError> {
    use velv_core::{GEncoding, TransitivityMode, UpElimination};
    let mut options = TranslationOptions::default();
    for field in text.split(',') {
        let (key, value) = field
            .split_once(':')
            .ok_or_else(|| parse_err(format!("expected key:value option, got `{field}`")))?;
        match key {
            "pe" => options.positive_equality = parse_flag(key, value)?,
            "er" => options.early_reduction = parse_flag(key, value)?,
            "enc" => {
                options.encoding = match value {
                    "eij" => GEncoding::Eij,
                    "sd" => GEncoding::SmallDomain,
                    other => return Err(parse_err(format!("unknown encoding `{other}`"))),
                }
            }
            "trans" => {
                options.transitivity = match value {
                    "eager" => TransitivityMode::Eager,
                    "lazy" => TransitivityMode::Lazy,
                    other => return Err(parse_err(format!("unknown transitivity `{other}`"))),
                }
            }
            "up" => {
                options.up_elimination = match value {
                    "ite" => UpElimination::NestedIte,
                    "ack" => UpElimination::Ackermann,
                    other => return Err(parse_err(format!("unknown up-elimination `{other}`"))),
                }
            }
            other => return Err(parse_err(format!("unknown option key `{other}`"))),
        }
    }
    Ok(options)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_wire_round_trips() {
        let models = [
            ModelRef::dlx1_correct(),
            ModelRef::dlx1_bug(3),
            ModelRef::Dlx {
                config: DlxVariant::DualFull,
                bug: Some(12),
            },
            ModelRef::Vliw {
                exceptions: true,
                bug: None,
            },
            ModelRef::Vliw {
                exceptions: false,
                bug: Some(1),
            },
            ModelRef::Ooo { width: 2 },
        ];
        for model in models {
            let wire = model.to_wire();
            assert_eq!(ModelRef::parse_wire(&wire), Ok(model), "{wire}");
        }
        assert!(ModelRef::parse_wire("z80:correct").is_err());
        assert!(ModelRef::parse_wire("dlx1:bug").is_err());
        assert!(ModelRef::parse_wire("dlx1:bug:x").is_err());
        assert!(ModelRef::parse_wire("ooo:first").is_err());
        assert!(ModelRef::parse_wire("dlx1:correct:extra").is_err());
    }

    #[test]
    fn job_wire_round_trips() {
        let mut spec = JobSpec::new(ModelRef::dlx1_bug(2));
        spec.backend = BackendChoice::Portfolio;
        spec.mode = SolveMode::Decomposed { max_obligations: 8 };
        spec.options = TranslationOptions::default().with_lazy_transitivity();
        spec.certified = true;
        spec.priority = -3;
        spec.timeout = Some(Duration::from_millis(1500));
        spec.max_conflicts = Some(10_000);
        let line = spec.to_wire();
        assert_eq!(JobSpec::parse_wire(&line).unwrap(), spec, "{line}");

        let minimal = JobSpec::parse_wire("model=dlx1:correct").unwrap();
        assert_eq!(minimal, JobSpec::default());
        assert!(
            JobSpec::parse_wire("backend=chaff").is_err(),
            "model required"
        );
        assert!(JobSpec::parse_wire("model=dlx1:correct frob=1").is_err());
    }

    #[test]
    fn salt_excludes_scheduling_fields() {
        let a = JobSpec::new(ModelRef::dlx1_correct()).with_priority(7);
        let b = JobSpec::new(ModelRef::dlx1_correct()).with_timeout(Duration::from_secs(1));
        assert_eq!(a.salt(), b.salt());
        let mut c = JobSpec::new(ModelRef::dlx1_correct());
        c.backend = BackendChoice::Sat(SolverKind::Sato);
        assert_ne!(a.salt(), c.salt());
        let mut d = JobSpec::new(ModelRef::dlx1_correct());
        d.certified = true;
        assert_ne!(a.salt(), d.salt());
    }

    #[test]
    fn build_rejects_out_of_range_indices() {
        assert!(ModelRef::dlx1_bug(10_000).build().is_err());
        assert!(ModelRef::Ooo { width: 0 }.build().is_err());
        assert!(ModelRef::dlx1_correct().build().is_ok());
    }
}
