//! Retention-set selection analysis.
//!
//! The paper's project goal: "discover the minimal architectural state of
//! the CPU that needs to be retained in case of selective state retention
//! without compromising the correctness".  This module provides two tools:
//!
//! * [`classify`] — a structural classification of a netlist's state cells
//!   into named groups (PC, instruction memory, register bank, data memory,
//!   micro-architectural rest), with per-group retention status; and
//! * [`minimise`] — a greedy exploration that, given a verification oracle
//!   (in practice: "does the Property II suite still pass for this
//!   policy?"), drops retention from one architectural group at a time and
//!   keeps the reduction whenever the oracle still accepts it.
//!
//! The exploration works at the level of [`RetentionPolicy`] because the
//! case-study core is regenerated per policy, mirroring how a designer would
//! iterate with synthesis in the loop.

use ssr_cpu::RetentionPolicy;
use ssr_netlist::{CellKind, Netlist};

/// Per-group census of the state cells of a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateClass {
    /// Group name.
    pub name: String,
    /// Number of flip-flops in the group.
    pub flops: usize,
    /// Number of those implemented as retention registers.
    pub retained: usize,
    /// `true` if the group is programmer-visible.
    pub architectural: bool,
}

/// Classifies the state cells of a generated core netlist into the paper's
/// groups by net-name prefix.
pub fn classify(netlist: &Netlist) -> Vec<StateClass> {
    let groups: [(&str, &str, bool); 5] = [
        ("program counter", "PC[", true),
        ("instruction memory", "IMem_w", true),
        ("register bank", "Registers_w", true),
        ("data memory", "DMem_w", true),
        ("instruction fetch register", "IFR_Instr", false),
    ];
    let mut out: Vec<StateClass> = groups
        .iter()
        .map(|(name, _, arch)| StateClass {
            name: (*name).to_owned(),
            flops: 0,
            retained: 0,
            architectural: *arch,
        })
        .collect();
    let mut other = StateClass {
        name: "other micro-architectural state".into(),
        flops: 0,
        retained: 0,
        architectural: false,
    };

    for (_, cell) in netlist.state_cells() {
        let name = netlist.net(cell.output).name;
        let retained = matches!(cell.kind, CellKind::Reg(k) if k.is_retention());
        let slot = groups
            .iter()
            .position(|(_, prefix, _)| name.starts_with(prefix));
        let class = match slot {
            Some(i) => &mut out[i],
            None => &mut other,
        };
        class.flops += 1;
        if retained {
            class.retained += 1;
        }
    }
    out.push(other);
    out.retain(|c| c.flops > 0);
    out
}

/// Summary of one step of the minimisation search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectionStep {
    /// The policy that was tried.
    pub policy: RetentionPolicy,
    /// Name of the group whose retention was dropped relative to the
    /// current best policy (`None` for the initial full-architectural
    /// check).
    pub dropped: Option<String>,
    /// Whether the oracle accepted the policy.
    pub accepted: bool,
}

/// Greedy retention-set minimisation.
///
/// Starting from the all-architectural policy, tries to drop retention from
/// each of the four architectural groups in turn; a drop is kept when
/// `oracle` still accepts the resulting policy.  Returns the final minimal
/// policy together with the full exploration log.
///
/// The oracle is typically "regenerate the core with this policy and check
/// the Property II suite"; it is supplied as a closure so that this crate
/// does not depend on the property definitions.
pub fn minimise<F>(mut oracle: F) -> (RetentionPolicy, Vec<SelectionStep>)
where
    F: FnMut(&RetentionPolicy) -> bool,
{
    let mut best = RetentionPolicy::architectural();
    let mut log = Vec::new();
    let initial_ok = oracle(&best);
    log.push(SelectionStep {
        policy: best,
        dropped: None,
        accepted: initial_ok,
    });
    if !initial_ok {
        // Even the paper's recommended policy fails the oracle; nothing to
        // minimise.
        return (best, log);
    }

    #[allow(clippy::type_complexity)]
    let groups: [(&str, fn(&mut RetentionPolicy)); 4] = [
        ("program counter", |p| p.pc = false),
        ("instruction memory", |p| p.imem = false),
        ("register bank", |p| p.regfile = false),
        ("data memory", |p| p.dmem = false),
    ];
    for (name, drop) in groups {
        let mut candidate = best;
        drop(&mut candidate);
        let accepted = oracle(&candidate);
        log.push(SelectionStep {
            policy: candidate,
            dropped: Some(name.to_owned()),
            accepted,
        });
        if accepted {
            best = candidate;
        }
    }
    (best, log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_cpu::{build_core, CoreConfig};

    #[test]
    fn classification_of_the_default_core() {
        let netlist = build_core(&CoreConfig::small_test()).expect("generates");
        let classes = classify(&netlist);
        let by_name = |n: &str| classes.iter().find(|c| c.name == n).expect("present");
        assert_eq!(by_name("program counter").flops, 32);
        assert_eq!(by_name("program counter").retained, 32);
        assert_eq!(by_name("instruction memory").flops, 8 * 32);
        assert_eq!(by_name("register bank").flops, 8 * 32);
        assert_eq!(by_name("data memory").flops, 8 * 32);
        let ifr = by_name("instruction fetch register");
        assert_eq!(ifr.flops, 6);
        assert_eq!(ifr.retained, 0);
        assert!(!ifr.architectural);
        assert!(by_name("program counter").architectural);
        // Every state cell is accounted for.
        let total: usize = classes.iter().map(|c| c.flops).sum();
        assert_eq!(total, netlist.state_cells().count());
    }

    #[test]
    fn minimise_with_a_strict_oracle_keeps_everything() {
        // An oracle that only accepts the full architectural policy.
        let (best, log) = minimise(|p| *p == RetentionPolicy::architectural());
        assert_eq!(best, RetentionPolicy::architectural());
        assert_eq!(log.len(), 5);
        assert!(log[0].accepted);
        assert!(log[1..].iter().all(|s| !s.accepted));
    }

    #[test]
    fn minimise_with_a_permissive_oracle_drops_groups() {
        // An oracle that does not care about the data memory.
        let (best, log) = minimise(|p| p.pc && p.imem && p.regfile);
        assert!(best.pc && best.imem && best.regfile && !best.dmem);
        assert_eq!(log.iter().filter(|s| s.accepted).count(), 2);
    }

    #[test]
    fn minimise_reports_failing_baseline() {
        let (best, log) = minimise(|_| false);
        assert_eq!(best, RetentionPolicy::architectural());
        assert_eq!(log.len(), 1);
        assert!(!log[0].accepted);
    }
}
