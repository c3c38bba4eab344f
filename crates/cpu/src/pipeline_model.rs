//! Micro-architectural state inventory for deeper pipelines.
//!
//! The paper's conclusion argues the economics of selective retention: "For
//! a 3-stage, 5-stage and 7-stage CPU the programmer's visible
//! 'architectural state' is basically the same but the micro-architectural
//! state roughly doubles every generation as more complex write buffering,
//! branch prediction and address translation/virtual memory structures grow"
//! and "retention registers may be 25–40 % larger area per flop".
//!
//! This module turns that statement into a parametric state inventory used
//! by the area/leakage savings experiment (E8).  The 3-stage anchor is an
//! itemised estimate of the obvious micro-architectural structures of a
//! small embedded core; the 5- and 7-stage generations follow the paper's
//! "roughly doubles" rule by adding the structures it names.

/// One named group of state bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateGroup {
    /// Human-readable name ("pipeline registers", "branch predictor", …).
    pub name: String,
    /// Number of flip-flop bits in the group.
    pub bits: usize,
    /// `true` if the group is programmer-visible (architectural).
    pub architectural: bool,
}

/// The state inventory of one CPU generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenerationModel {
    /// Number of pipeline stages (3, 5 or 7 in the paper's narrative).
    pub stages: usize,
    /// The state groups.
    pub groups: Vec<StateGroup>,
}

impl GenerationModel {
    /// Total architectural state bits.
    pub fn architectural_bits(&self) -> usize {
        self.groups
            .iter()
            .filter(|g| g.architectural)
            .map(|g| g.bits)
            .sum()
    }

    /// Total micro-architectural state bits.
    pub fn micro_bits(&self) -> usize {
        self.groups
            .iter()
            .filter(|g| !g.architectural)
            .map(|g| g.bits)
            .sum()
    }
}

/// The architectural state shared by every generation: 32 general-purpose
/// registers, the PC and a status/mode register.
fn architectural_groups() -> Vec<StateGroup> {
    vec![
        StateGroup {
            name: "general-purpose registers".into(),
            bits: 32 * 32,
            architectural: true,
        },
        StateGroup {
            name: "program counter".into(),
            bits: 32,
            architectural: true,
        },
        StateGroup {
            name: "status / mode register".into(),
            bits: 32,
            architectural: true,
        },
    ]
}

/// Builds the state inventory for a given pipeline depth.
///
/// # Panics
/// Panics if `stages` is not 3, 5 or 7 (the generations the paper names).
pub fn generation(stages: usize) -> GenerationModel {
    let mut groups = architectural_groups();
    match stages {
        3 => {
            groups.extend([
                StateGroup {
                    name: "pipeline registers (2 boundaries)".into(),
                    bits: 2 * 96,
                    architectural: false,
                },
                StateGroup {
                    name: "fetch/decode buffers".into(),
                    bits: 64,
                    architectural: false,
                },
                StateGroup {
                    name: "bus interface state".into(),
                    bits: 96,
                    architectural: false,
                },
            ]);
        }
        5 => {
            groups.extend([
                StateGroup {
                    name: "pipeline registers (4 boundaries)".into(),
                    bits: 4 * 96,
                    architectural: false,
                },
                StateGroup {
                    name: "fetch/decode buffers".into(),
                    bits: 96,
                    architectural: false,
                },
                StateGroup {
                    name: "write buffer".into(),
                    bits: 2 * 64,
                    architectural: false,
                },
                StateGroup {
                    name: "branch predictor (small BTB)".into(),
                    bits: 128,
                    architectural: false,
                },
                StateGroup {
                    name: "bus interface state".into(),
                    bits: 96,
                    architectural: false,
                },
            ]);
        }
        7 => {
            groups.extend([
                StateGroup {
                    name: "pipeline registers (6 boundaries)".into(),
                    bits: 6 * 96,
                    architectural: false,
                },
                StateGroup {
                    name: "fetch/decode buffers".into(),
                    bits: 128,
                    architectural: false,
                },
                StateGroup {
                    name: "write buffer".into(),
                    bits: 4 * 64,
                    architectural: false,
                },
                StateGroup {
                    name: "branch predictor (BTB + GHR)".into(),
                    bits: 512,
                    architectural: false,
                },
                StateGroup {
                    name: "TLB / address translation".into(),
                    bits: 384,
                    architectural: false,
                },
                StateGroup {
                    name: "bus interface and prefetch state".into(),
                    bits: 160,
                    architectural: false,
                },
            ]);
        }
        other => panic!("the paper discusses 3-, 5- and 7-stage generations, not {other}"),
    }
    GenerationModel { stages, groups }
}

/// The three generations the paper names, in order.
pub fn generations() -> Vec<GenerationModel> {
    vec![generation(3), generation(5), generation(7)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn architectural_state_is_constant_across_generations() {
        let gens = generations();
        let arch: Vec<usize> = gens.iter().map(|g| g.architectural_bits()).collect();
        assert_eq!(arch[0], arch[1]);
        assert_eq!(arch[1], arch[2]);
        assert_eq!(arch[0], 32 * 32 + 32 + 32);
    }

    #[test]
    fn micro_state_roughly_doubles_per_generation() {
        let gens = generations();
        let micro: Vec<f64> = gens.iter().map(|g| g.micro_bits() as f64).collect();
        let r1 = micro[1] / micro[0];
        let r2 = micro[2] / micro[1];
        assert!((1.5..=2.5).contains(&r1), "3→5 stage growth {r1}");
        assert!((1.5..=2.5).contains(&r2), "5→7 stage growth {r2}");
    }

    #[test]
    fn totals_add_up() {
        let g = generation(5);
        let group_bits: usize = g.groups.iter().map(|group| group.bits).sum();
        assert_eq!(g.architectural_bits() + g.micro_bits(), group_bits);
        assert_eq!(g.stages, 5);
    }

    #[test]
    #[should_panic(expected = "3-, 5- and 7-stage")]
    fn other_depths_rejected() {
        let _ = generation(4);
    }
}
