//! End-to-end checks for the file frontends: every committed AIGER/DIMACS
//! corpus file loads through [`DesignSource`] and verifies to its known
//! verdict under every engine lane, and the CLI drives the same files
//! through `verify --engine <lane>`.
//!
//! The corpus under `tests/data/` is hand-written with hand-computed
//! expected verdicts (see the comment sections inside the files), so these
//! tests pin the whole chain: parse → netlist → property extraction →
//! engine → verdict/depth → exit code.

use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

use rfn::core::{DesignSource, EngineKind, LoadedDesign, Verdict, VerifySession};
use rfn::netlist::{write_aiger_binary, NetKind};

/// What a corpus property must verify to.
#[derive(Clone, Copy, Debug)]
enum Expect {
    /// Safe at every depth.
    Proved,
    /// Falsified with this minimal violating cycle index.
    FalsifiedAt(usize),
}

/// The committed corpus and its hand-computed verdicts, in property order.
const CORPUS: &[(&str, &[(&str, Expect)])] = &[
    ("toggle.aag", &[("high", Expect::FalsifiedAt(1))]),
    ("stuck.aag", &[("stuck_high", Expect::Proved)]),
    ("latch_or.aag", &[("went_high", Expect::FalsifiedAt(1))]),
    ("counter3_bad7.aag", &[("at_seven", Expect::FalsifiedAt(7))]),
    (
        "two_props.aag",
        &[
            ("never_fires", Expect::Proved),
            ("toggles_high", Expect::FalsifiedAt(1)),
        ],
    ),
    ("outputs_as_bad.aag", &[("stuck_out", Expect::Proved)]),
    ("sat2.cnf", &[("sat", Expect::FalsifiedAt(0))]),
    ("unsat1.cnf", &[("sat", Expect::Proved)]),
];

fn data_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(file)
}

fn load(file: &str) -> LoadedDesign {
    let spec = data_path(file);
    DesignSource::parse(spec.to_str().unwrap())
        .and_then(|s| s.load())
        .unwrap_or_else(|e| panic!("loading {file}: {e}"))
}

/// The violating cycle index a falsified verdict reports: plain/BMC report
/// it directly; the RFN lane carries a concrete trace whose last cycle is
/// the violation.
fn falsified_depth(verdict: &Verdict) -> Option<usize> {
    match verdict {
        Verdict::Falsified { trace, depth } => {
            Some(trace.as_ref().map_or(*depth, |t| t.num_cycles() - 1))
        }
        _ => None,
    }
}

fn check_engine(file: &str, loaded: &LoadedDesign, engine: EngineKind) {
    let report = VerifySession::new(&loaded.design.netlist)
        .design_identity(&loaded.identity)
        .engine(engine)
        .properties(loaded.design.properties.clone())
        .time_limit(Duration::from_secs(60))
        .run()
        .unwrap_or_else(|e| panic!("{file} under {engine:?}: {e}"));
    let expects = CORPUS
        .iter()
        .find(|(f, _)| *f == file)
        .map(|(_, e)| *e)
        .unwrap();
    assert_eq!(
        report.results.len(),
        expects.len(),
        "{file}: property count"
    );
    for (result, &(name, expect)) in report.results.iter().zip(expects) {
        assert_eq!(result.property.name, name, "{file}: property order");
        let ctx = format!("{file}/{name} under {engine:?}");
        match expect {
            Expect::FalsifiedAt(want) => {
                let got = falsified_depth(&result.verdict).unwrap_or_else(|| {
                    panic!("{ctx}: expected falsified, got {:?}", result.verdict)
                });
                assert_eq!(got, want, "{ctx}: counterexample depth");
            }
            Expect::Proved => match (&result.verdict, engine) {
                (Verdict::Proved, _) => {}
                // The BMC lane alone cannot conclude unbounded safety; a
                // bounded-safe sweep surfaces as inconclusive.
                (Verdict::Inconclusive { .. }, EngineKind::Bmc) => {}
                (other, _) => panic!("{ctx}: expected proved, got {other:?}"),
            },
        }
    }
}

#[test]
fn corpus_verifies_under_every_engine() {
    for (file, _) in CORPUS {
        let loaded = load(file);
        for engine in [
            EngineKind::Rfn,
            EngineKind::PlainMc,
            EngineKind::Bmc,
            EngineKind::Race,
        ] {
            check_engine(file, &loaded, engine);
        }
    }
}

#[test]
fn corpus_identities_are_content_hashes() {
    for (file, _) in CORPUS {
        let loaded = load(file);
        let canonical = loaded.identity.canonical.clone();
        assert!(
            canonical.starts_with("file:"),
            "{file}: canonical identity `{canonical}` should be content-addressed"
        );
        // Stable across reloads, and the design is named after the stem.
        assert_eq!(load(file).identity.canonical, canonical, "{file}");
        let stem = file.split('.').next().unwrap();
        assert_eq!(loaded.design.netlist.name(), stem, "{file}: design name");
    }
}

#[test]
fn binary_aig_agrees_with_ascii() {
    for (file, _) in CORPUS.iter().filter(|(f, _)| f.ends_with(".aag")) {
        let loaded = load(file);
        let bytes = write_aiger_binary(&loaded.design.netlist, &loaded.design.properties).unwrap();
        let path = std::env::temp_dir().join(format!(
            "rfn_frontends_{}_{}.aig",
            std::process::id(),
            file.replace('.', "_")
        ));
        std::fs::write(&path, bytes).unwrap();
        let reloaded = DesignSource::parse(path.to_str().unwrap())
            .and_then(|s| s.load())
            .unwrap_or_else(|e| panic!("{file} as binary: {e}"));
        std::fs::remove_file(&path).ok();
        assert_eq!(
            reloaded.design.properties.len(),
            loaded.design.properties.len(),
            "{file}: binary property count"
        );
        // The binary body re-verifies to the same verdicts under the racing
        // portfolio (the lowered AIG can differ structurally from the ascii
        // parse only through Not-gate sharing, never semantically).
        check_engine(file, &reloaded, EngineKind::Race);
    }
}

#[test]
fn dimacs_netlists_are_combinational() {
    for file in ["sat2.cnf", "unsat1.cnf"] {
        let loaded = load(file);
        let n = &loaded.design.netlist;
        assert_eq!(
            n.registers().len(),
            0,
            "{file}: CNF encodings are stateless"
        );
        assert!(
            n.signals()
                .any(|s| !matches!(n.kind(s), NetKind::Input | NetKind::Const(_))),
            "{file}: clauses materialize gates"
        );
    }
}

fn rfn() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rfn"))
}

#[test]
fn cli_verifies_committed_aiger_under_every_engine() {
    // Falsified design: exit code 1 under every lane, with the hand-computed
    // depth visible in the report.
    for engine in ["rfn", "plain", "bmc", "race"] {
        let out = rfn()
            .args(["verify"])
            .arg(data_path("counter3_bad7.aag"))
            .args(["--engine", engine])
            .output()
            .expect("spawn rfn");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(1),
            "engine {engine}: {stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.contains("FALSIFIED `at_seven`"),
            "engine {engine}: {stdout}"
        );
    }
    // Proved design: exit 0 where the lane can prove, 3 (inconclusive) for
    // the bounded lane.
    for (engine, code) in [("rfn", 0), ("plain", 0), ("bmc", 3), ("race", 0)] {
        let out = rfn()
            .args(["verify"])
            .arg(data_path("stuck.aag"))
            .args(["--engine", engine])
            .output()
            .expect("spawn rfn");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(code),
            "engine {engine}: {stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn cli_info_reports_file_identity_and_properties() {
    let out = rfn()
        .args(["info"])
        .arg(data_path("two_props.aag"))
        .output()
        .expect("spawn rfn");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("file:"), "{stdout}");
    assert!(stdout.contains("never_fires"), "{stdout}");
    assert!(stdout.contains("toggles_high"), "{stdout}");
}

#[test]
fn cli_rejects_malformed_aiger_with_location() {
    let path = std::env::temp_dir().join(format!("rfn_frontends_bad_{}.aag", std::process::id()));
    std::fs::write(&path, "aag 1 1 0 0 0\nxyz\n").unwrap();
    let out = rfn()
        .args(["verify"])
        .arg(&path)
        .args(["--engine", "race"])
        .output()
        .expect("spawn rfn");
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2"), "{stderr}");
}

/// A DIMACS header may declare far more variables than its clauses mention.
/// Loading must cost memory in proportion to the file, not to the header:
/// under a 4 GB address-space cap, an allocation sized by the declared
/// count aborts the process instead of verifying the (satisfiable) formula.
#[cfg(unix)]
#[test]
fn cli_verifies_huge_dimacs_header_in_bounded_memory() {
    for (tag, body) in [
        ("unused", "p cnf 2000000000 1\n1 0\n"),
        ("far", "p cnf 2000000000 1\n-2000000000 0\n"),
    ] {
        let path = std::env::temp_dir().join(format!(
            "rfn_frontends_huge_{tag}_{}.cnf",
            std::process::id()
        ));
        std::fs::write(&path, body).unwrap();
        let out = Command::new("sh")
            .args(["-c", "ulimit -v 4000000 && exec \"$0\" verify \"$1\""])
            .arg(env!("CARGO_BIN_EXE_rfn"))
            .arg(&path)
            .output()
            .expect("spawn sh");
        std::fs::remove_file(&path).ok();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{tag}: {stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("FALSIFIED"), "{tag}: {stdout}");
    }
}
