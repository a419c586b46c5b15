//! Shared model-building helpers for the benchmark harnesses.
//!
//! The [`Case`] type and its builders used to live inside `mcbench`; they
//! are shared here so `warmbench` (and any future harness) builds bounded
//! abstractions and symbolic models exactly the same way. The module also
//! provides [`grouped_synthetic`], the many-property synthetic design the
//! multi-property grouping sections benchmark against.

use std::time::Instant;

use rfn_bdd::{Bdd, BddManager};
use rfn_core::{closest_registers, DesignSource, LoadedDesign};
use rfn_mc::{ModelOptions, ModelSpec, SymbolicModel};
use rfn_netlist::{Abstraction, GateOp, Netlist, Property, SignalId};

/// One benchmark workload: a design, a target signal, and the bounded
/// abstraction the models are built from.
pub struct Case {
    /// Short design name for table rows.
    pub name: String,
    /// The watched signal's name (property or coverage target).
    pub target_name: String,
    /// The full design.
    pub netlist: Netlist,
    /// The watched signal.
    pub target: SignalId,
    /// The watched value.
    pub value: bool,
    /// The bounded abstraction's model spec.
    pub spec: ModelSpec,
    /// Step cap for reachability fixpoints on this case.
    pub steps: usize,
}

/// Builds one [`Case`]: the `cap` BFS-nearest registers of the target, as
/// the coverage engine's initial abstraction would pick.
pub fn make_case(
    name: impl Into<String>,
    netlist: Netlist,
    target_name: String,
    target: SignalId,
    value: bool,
    cap: usize,
    steps: usize,
) -> Case {
    let name = name.into();
    eprintln!("bench: building {name}/{target_name} (cap {cap})");
    let regs = closest_registers(&netlist, &[target], cap);
    let view = Abstraction::from_registers(regs)
        .view(&netlist, [target])
        .expect("bundled designs validate");
    let spec = ModelSpec::from_view(&view);
    Case {
        name,
        target_name,
        netlist,
        target,
        value,
        spec,
        steps,
    }
}

/// Resolves and loads a design spec (`builtin:<name>`, `fuzz:<seed>`, an
/// AIGER/DIMACS/text path — see [`DesignSource`]) with a bench-friendly
/// string error.
///
/// # Errors
///
/// The rendered parse/load error when the spec is invalid or the file is
/// unreadable or malformed.
pub fn load_source(spec: &str) -> Result<LoadedDesign, String> {
    DesignSource::parse(spec)
        .and_then(|source| source.load())
        .map_err(|e| e.to_string())
}

/// Builds one [`Case`] from a design spec: loads it through
/// [`DesignSource`] and bounds the abstraction around its first property's
/// target. The case is named after the netlist.
///
/// # Errors
///
/// A load error, or a message naming the spec when the design carries no
/// properties (text netlists need an explicit `--watch`-style target, which
/// the bench harnesses do not take).
pub fn design_case(spec: &str, cap: usize, steps: usize) -> Result<Case, String> {
    let loaded = load_source(spec)?;
    let p = loaded
        .design
        .properties
        .first()
        .ok_or_else(|| format!("design `{spec}` carries no properties to benchmark"))?;
    Ok(make_case(
        loaded.design.netlist.name().to_owned(),
        loaded.design.netlist.clone(),
        p.name.clone(),
        p.signal,
        p.value,
        cap,
        steps,
    ))
}

/// Builds the model for one configuration and the target BDD, timing the
/// build (which includes partition clustering and schedule precomputation).
pub fn build_model<'n>(
    case: &'n Case,
    target: Option<(SignalId, bool)>,
    cluster_limit: usize,
) -> (SymbolicModel<'n>, Bdd, f64) {
    let build_start = Instant::now();
    let mut model = SymbolicModel::with_options(
        &case.netlist,
        case.spec.clone(),
        BddManager::new(),
        ModelOptions {
            cluster_limit,
            ..ModelOptions::default()
        },
    )
    .expect("bundled designs validate");
    let build_ms = build_start.elapsed().as_secs_f64() * 1e3;
    let target_bdd = match target {
        None => model.manager_ref().zero(),
        Some((s, v)) => {
            let sig = model.signal_bdd(s).expect("target is in the bounded cone");
            if v {
                sig
            } else {
                model.manager().not(sig).expect("no node limit set")
            }
        }
    };
    (model, target_bdd, build_ms)
}

/// The many-property synthetic for grouping benchmarks: `groups`
/// independent saturating counters, each watched by `props_per_group`
/// properties over that counter alone.
///
/// Per group the counter is wide enough to count past every detector, and
/// the properties are: exact-value detectors at 1, 2, …
/// (`props_per_group - 1` of them, each falsified exactly at the depth of
/// its value) plus one watchdog that latches a structurally contradictory
/// condition (never fires; the plain engine proves it by fixpoint). The
/// counters share no logic, so inter-group COI overlap is zero while
/// intra-group overlap is total — at any threshold in `(0, 1]` the
/// clustering recovers exactly one group per counter.
pub fn grouped_synthetic(groups: usize, props_per_group: usize) -> (Netlist, Vec<Property>) {
    assert!(props_per_group >= 2, "need a detector and a watchdog");
    // Wide enough that the deepest detector value stays strictly below
    // saturation (all-ones), where the watchdog condition is evaluated.
    let mut width = 2usize;
    while (1usize << width) - 1 < props_per_group {
        width += 1;
    }
    let mut n = Netlist::new("grouped_synthetic");
    let mut properties = Vec::new();
    for g in 0..groups {
        let bits: Vec<SignalId> = (0..width)
            .map(|i| n.add_register(&format!("g{g}_b{i}"), Some(false)))
            .collect();
        let full = n.add_gate(&format!("g{g}_full"), GateOp::And, &bits);
        // Saturating increment: bit_i flips when all lower bits are set,
        // and every bit holds at the all-ones plateau.
        let mut carry = None;
        for (i, &b) in bits.iter().enumerate() {
            let inc = match carry {
                None => n.add_gate(&format!("g{g}_inc{i}"), GateOp::Not, &[b]),
                Some(c) => n.add_gate(&format!("g{g}_inc{i}"), GateOp::Xor, &[b, c]),
            };
            let hold = n.add_gate(&format!("g{g}_t{i}"), GateOp::Or, &[inc, full]);
            n.set_register_next(b, hold).unwrap();
            carry = Some(match carry {
                None => b,
                Some(c) => n.add_gate(&format!("g{g}_c{i}"), GateOp::And, &[c, b]),
            });
        }
        for v in 1..props_per_group {
            let fanins: Vec<SignalId> = (0..width)
                .map(|i| {
                    if v >> i & 1 == 1 {
                        bits[i]
                    } else {
                        n.add_gate(&format!("g{g}_at{v}_n{i}"), GateOp::Not, &[bits[i]])
                    }
                })
                .collect();
            let at = n.add_gate(&format!("g{g}_at{v}"), GateOp::And, &fanins);
            properties.push((format!("g{g}_at{v}"), at));
        }
        // The watchdog latches `full ∧ ¬b0`, which is contradictory (full
        // implies every bit): a genuinely safe property per group.
        let nb0 = n.add_gate(&format!("g{g}_nb0"), GateOp::Not, &[bits[0]]);
        let arm = n.add_gate(&format!("g{g}_arm"), GateOp::And, &[full, nb0]);
        let w = n.add_register(&format!("g{g}_w"), Some(false));
        let hold = n.add_gate(&format!("g{g}_wt"), GateOp::Or, &[w, arm]);
        n.set_register_next(w, hold).unwrap();
        properties.push((format!("g{g}_wd"), w));
    }
    n.validate().expect("the synthetic validates");
    let properties = properties
        .into_iter()
        .map(|(name, signal)| Property::never(&n, &name, signal))
        .collect();
    (n, properties)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfn_netlist::PropertyGroups;

    #[test]
    fn synthetic_clusters_into_one_group_per_counter() {
        let (n, props) = grouped_synthetic(3, 4);
        assert_eq!(props.len(), 12);
        let groups = PropertyGroups::cluster(&n, &props, 0.5);
        assert_eq!(groups.len(), 3);
        for (g, group) in groups.groups().iter().enumerate() {
            assert_eq!(group.members(), [4 * g, 4 * g + 1, 4 * g + 2, 4 * g + 3]);
        }
    }

    #[test]
    fn synthetic_detector_depths_are_their_values() {
        let (n, props) = grouped_synthetic(2, 3);
        for (i, p) in props.iter().enumerate() {
            let report = rfn_mc::verify_plain(&n, p, &rfn_mc::PlainOptions::default()).unwrap();
            match i % 3 {
                v @ (0 | 1) => assert_eq!(
                    report.verdict,
                    rfn_mc::PlainVerdict::Falsified { depth: v + 1 },
                    "property {}",
                    p.name
                ),
                _ => assert_eq!(
                    report.verdict,
                    rfn_mc::PlainVerdict::Proved,
                    "property {}",
                    p.name
                ),
            }
        }
    }
}
