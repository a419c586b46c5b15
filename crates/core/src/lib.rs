//! RFN: formal property verification by abstraction refinement with formal,
//! simulation and hybrid engines.
//!
//! This crate implements the complete verification loop of the DAC 2001
//! paper. Given a gate-level design and an unreachability property, [`Rfn`]
//! iterates the paper's four steps:
//!
//! 1. **Generate the abstract model** — a subcircuit induced by a growing
//!    register set; excluded registers are free pseudo-inputs
//!    ([`rfn_netlist::Abstraction`]).
//! 2. **Prove or find an abstract error trace** — BDD-based forward fixpoint
//!    with onion rings; on a target hit, the **hybrid BDD–ATPG engine**
//!    ([`hybrid_trace`]) reconstructs an error trace using pre-images on the
//!    *min-cut design* and combinational ATPG to lift min-cut cubes to
//!    no-cut cubes.
//! 3. **Concretize** — a staged cheap-to-expensive search of the original
//!    design, guided by the abstract trace (depth bound + per-cycle
//!    constraint cubes, [`concretize`]): bit-parallel guided random
//!    simulation first ([`rfn_sim::random_concretize`]), then sequential
//!    ATPG with its time-frame decision order biased by the random stage's
//!    per-cycle survivor counts.
//! 4. **Refine** — two-phase crucial-register identification: 3-valued
//!    simulation conflicts, then greedy ATPG minimization ([`refine`]).
//!
//! The loop is sound in both directions: `Proved` only ever comes from a
//! fixpoint on an over-approximating abstraction, and `Falsified` traces are
//! replayed concretely on the original design before being reported.
//!
//! The crate also implements the paper's second application,
//! **unreachable-coverage-state analysis** ([`analyze_coverage`]), together
//! with the BFS abstraction baseline it is compared against in Table 2
//! ([`bfs_coverage`]).
//!
//! # Example
//!
//! ```
//! use rfn_core::{Rfn, RfnOptions, RfnOutcome};
//! use rfn_netlist::{Netlist, GateOp, Property};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A flag that can never rise, plus an irrelevant counter.
//! let mut n = Netlist::new("demo");
//! let flag = n.add_register("flag", Some(false));
//! n.set_register_next(flag, flag)?;
//! let junk = n.add_register("junk", Some(false));
//! let nj = n.add_gate("nj", GateOp::Not, &[junk]);
//! n.set_register_next(junk, nj)?;
//! n.validate()?;
//!
//! let property = Property::never(&n, "flag_low", flag);
//! let outcome = Rfn::new(&n, &property, RfnOptions::default())?.run()?;
//! assert!(matches!(outcome, RfnOutcome::Proved { .. }));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bmc;
mod checkpoint;
mod concretize;
mod coverage;
mod engine;
mod error;
mod hybrid;
mod portfolio;
mod refine;
mod rfn;
mod session;
mod source;

pub use bmc::{
    verify_bmc, verify_bmc_group, BmcOptions, BmcReport, BmcStats, BmcVerdict,
    DEFAULT_BMC_MAX_DEPTH,
};
pub use checkpoint::{LoopCheckpoint, CHECKPOINT_SCHEMA};
pub use concretize::{
    concretize, concretize_cube, concretize_cube_with_stats, concretize_with_stats, validate_trace,
    validate_trace_cube, ConcretizeOptions, ConcretizeOutcome, ConcretizeStats,
};
pub use coverage::{
    analyze_coverage, bfs_coverage, closest_registers, CoverageOptions, CoverageReport,
};
pub use engine::{
    build_engines, run_engines, BmcEngine, Engine, EngineKind, EngineOutcome, PlainMcEngine,
    RfnEngine, Verdict,
};
pub use error::{Error, Phase, RfnError};
pub use hybrid::{hybrid_trace, hybrid_traces, HybridOutcome, HybridStats};
pub use portfolio::{default_threads, parallel_map};
pub use refine::{refine, refine_with_roots, RefineOptions, RefineReport};
pub use rfn::{Rfn, RfnOptions, RfnOutcome, RfnStats};
pub use session::{PropertyResult, SessionReport, VerifySession, DEFAULT_GROUP_THRESHOLD};
pub use source::{DesignIdentity, DesignSource, LoadedDesign, BUILTIN_DESIGNS};

pub mod prelude {
    //! One-stop imports for driving the verifier.
    //!
    //! `use rfn_core::prelude::*;` brings in the session API, the engine
    //! entry points and option structs, the error type, and the trace and
    //! netlist types every driver needs. Binaries and benches should prefer
    //! this over enumerating a dozen paths.

    pub use crate::{
        analyze_coverage, bfs_coverage, default_threads, parallel_map, verify_bmc, verify_plain,
        BmcOptions, BmcReport, BmcVerdict, CommonOptions, CoverageOptions, CoverageReport,
        DesignIdentity, DesignSource, Engine, EngineKind, EngineOutcome, Error, LoadedDesign,
        LoopCheckpoint, Phase, PlainOptions, PlainReport, PlainVerdict, PropertyResult, Rfn,
        RfnError, RfnOptions, RfnOutcome, RfnStats, SessionReport, Verdict, VerifySession,
    };
    pub use rfn_govern::{Budget, CancelToken, Exhaustion, GovPhase};
    pub use rfn_netlist::{CoverageSet, Netlist, NetlistError, Property, Trace};
    pub use rfn_trace::{
        FanoutSink, JsonlSink, MemorySink, StderrSink, TimeBreakdown, TraceCtx, TraceSink,
    };
}

pub use rfn_govern::{Budget, CancelToken, Exhaustion, GovPhase};
pub use rfn_mc::{verify_plain, CommonOptions, McError, PlainOptions, PlainReport, PlainVerdict};
