//! Area and standby-leakage savings of selective retention.
//!
//! The paper's §IV gives the two quantitative anchors this model is built
//! on:
//!
//! 1. "retention registers may be 25–40 % larger area per flop", and
//! 2. across 3-, 5- and 7-stage generations "the programmer's visible
//!    'architectural state' is basically the same but the micro-architectural
//!    state roughly doubles every generation".
//!
//! Combining the two with the state inventory of
//! [`ssr_cpu::pipeline_model`] reproduces the economics of the conclusion:
//! the relative cost of *full* retention grows with every generation, while
//! the cost of retaining only the architectural state stays flat — this is
//! experiment E8.

use ssr_cpu::pipeline_model::GenerationModel;
use ssr_netlist::stats::{sequential_area_of, AreaModel};

/// Standby-leakage parameters (relative units).
///
/// During power-down a retention flop keeps a low-leakage balloon latch
/// powered; a volatile flop is completely power-gated.  Logic leakage is
/// assumed gated off entirely, so the standby leakage is proportional to the
/// number of retention flops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakageModel {
    /// Standby leakage of one retention flop relative to the *active*
    /// leakage of an ordinary flop (the balloon latch is designed to be
    /// weak, so this is well below 1).
    pub retention_flop_standby: f64,
    /// Active leakage of one ordinary flop (the reference unit).
    pub flop_active: f64,
}

impl Default for LeakageModel {
    fn default() -> Self {
        LeakageModel {
            retention_flop_standby: 0.12,
            flop_active: 1.0,
        }
    }
}

/// The per-generation comparison of full vs selective retention.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationSavings {
    /// Pipeline depth of the generation.
    pub stages: usize,
    /// Architectural flop count.
    pub architectural_flops: usize,
    /// Micro-architectural flop count.
    pub micro_flops: usize,
    /// Sequential area with *every* flop a retention flop.
    pub full_retention_area: f64,
    /// Sequential area with only the architectural flops retained.
    pub selective_retention_area: f64,
    /// Sequential area with no retention at all (the lower bound).
    pub no_retention_area: f64,
    /// Area saved by selective vs full retention, as a fraction of the full
    /// retention area.
    pub area_saving_fraction: f64,
    /// Standby leakage with full retention.
    pub full_retention_standby_leakage: f64,
    /// Standby leakage with selective retention.
    pub selective_retention_standby_leakage: f64,
    /// Standby leakage saved by selective vs full retention, as a fraction.
    pub leakage_saving_fraction: f64,
}

/// Computes the savings table for a set of generations under the given area
/// and leakage models.
pub fn savings(
    generations: &[GenerationModel],
    area: &AreaModel,
    leakage: &LeakageModel,
) -> Vec<GenerationSavings> {
    generations
        .iter()
        .map(|g| {
            let arch = g.architectural_bits();
            let micro = g.micro_bits();
            let total = arch + micro;
            let full_area = sequential_area_of(total, total, area);
            let selective_area = sequential_area_of(total, arch, area);
            let none_area = sequential_area_of(total, 0, area);
            let full_leak = total as f64 * leakage.retention_flop_standby * leakage.flop_active;
            let sel_leak = arch as f64 * leakage.retention_flop_standby * leakage.flop_active;
            GenerationSavings {
                stages: g.stages,
                architectural_flops: arch,
                micro_flops: micro,
                full_retention_area: full_area,
                selective_retention_area: selective_area,
                no_retention_area: none_area,
                area_saving_fraction: (full_area - selective_area) / full_area,
                full_retention_standby_leakage: full_leak,
                selective_retention_standby_leakage: sel_leak,
                leakage_saving_fraction: (full_leak - sel_leak) / full_leak,
            }
        })
        .collect()
}

/// Renders the savings table as aligned text (used by `ssr stats` and the
/// `retention_exploration` example).
pub fn render_table(rows: &[GenerationSavings]) -> String {
    let mut out = String::new();
    out.push_str(
        "stages | arch flops | micro flops | area(full) | area(selective) | area saved | leakage saved\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>6} | {:>10} | {:>11} | {:>10.0} | {:>15.0} | {:>9.1}% | {:>12.1}%\n",
            r.stages,
            r.architectural_flops,
            r.micro_flops,
            r.full_retention_area,
            r.selective_retention_area,
            100.0 * r.area_saving_fraction,
            100.0 * r.leakage_saving_fraction,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_cpu::pipeline_model::generations;

    #[test]
    fn selective_always_cheaper_than_full() {
        let rows = savings(
            &generations(),
            &AreaModel::default(),
            &LeakageModel::default(),
        );
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.selective_retention_area < r.full_retention_area);
            assert!(r.no_retention_area < r.selective_retention_area);
            assert!(r.area_saving_fraction > 0.0 && r.area_saving_fraction < 1.0);
            assert!(r.leakage_saving_fraction > 0.0 && r.leakage_saving_fraction < 1.0);
        }
    }

    #[test]
    fn savings_grow_with_pipeline_depth() {
        // As the micro-architectural share grows, selective retention saves
        // a larger fraction of both area overhead and standby leakage — the
        // paper's central economic argument.
        let rows = savings(
            &generations(),
            &AreaModel::default(),
            &LeakageModel::default(),
        );
        assert!(rows[0].area_saving_fraction < rows[1].area_saving_fraction);
        assert!(rows[1].area_saving_fraction < rows[2].area_saving_fraction);
        assert!(rows[0].leakage_saving_fraction < rows[1].leakage_saving_fraction);
        assert!(rows[1].leakage_saving_fraction < rows[2].leakage_saving_fraction);
    }

    #[test]
    fn overhead_bounds_match_the_paper() {
        // With the paper's 25 % and 40 % retention overheads the area
        // premium of full retention over no retention is exactly that
        // fraction.
        for overhead in [0.25, 0.40] {
            let model = AreaModel {
                retention_overhead: overhead,
                ..AreaModel::default()
            };
            let rows = savings(&generations(), &model, &LeakageModel::default());
            for r in &rows {
                let premium = r.full_retention_area / r.no_retention_area - 1.0;
                assert!((premium - overhead).abs() < 1e-9);
            }
            // At either bound, deeper pipelines still save more.
            assert!(rows
                .windows(2)
                .all(|w| w[0].area_saving_fraction < w[1].area_saving_fraction));
        }
    }

    #[test]
    fn table_renders_one_row_per_generation() {
        let rows = savings(
            &generations(),
            &AreaModel::default(),
            &LeakageModel::default(),
        );
        let text = render_table(&rows);
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains("stages"));
    }
}
