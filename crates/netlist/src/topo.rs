//! Structural analyses: topological ordering of the combinational logic
//! and combinational-loop detection.
//!
//! Everything here indexes dense vectors by cell and net id; compiling the
//! paper core touches no hash table.

use crate::cell::CellId;
use crate::error::NetlistError;
use crate::netlist::{NetId, Netlist};

/// No cell drives the net.
const UNDRIVEN: u32 = u32::MAX;

/// Computes a topological evaluation order of the combinational cells of
/// `netlist`: Kahn's algorithm with a FIFO queue seeded with the source
/// cells in id order.
///
/// Register outputs, primary inputs and constants are treated as sources;
/// the order lists every combinational cell such that all of a cell's
/// combinational predecessors appear before it.
///
/// # Errors
/// Returns [`NetlistError::CombinationalLoop`] naming a net on a cycle if
/// the combinational logic is cyclic.
pub fn eval_order(netlist: &Netlist) -> Result<Vec<CellId>, NetlistError> {
    let cells = netlist.cell_count();
    // The combinational cell driving each net, if any.
    let mut driver = vec![UNDRIVEN; netlist.net_count()];
    for (id, cell) in netlist.comb_cells() {
        driver[cell.output.index()] = id.0;
    }
    let comb_driver = |net: NetId| Some(driver[net.index()]).filter(|&d| d != UNDRIVEN);

    // Successor lists in compressed form: one edge per (input, reader)
    // pair, in reader order, so the queue releases cells in the same order
    // as adjacency lists built edge by edge would.
    let mut in_degree = vec![0u32; cells];
    let mut first = vec![0u32; cells + 1];
    for (id, cell) in netlist.comb_cells() {
        for src in cell.inputs.iter().filter_map(|&i| comb_driver(i)) {
            first[src as usize + 1] += 1;
            in_degree[id.index()] += 1;
        }
    }
    for i in 0..cells {
        first[i + 1] += first[i];
    }
    let mut fill = first.clone();
    let mut successors = vec![0u32; first[cells] as usize];
    for (id, cell) in netlist.comb_cells() {
        for src in cell.inputs.iter().filter_map(|&i| comb_driver(i)) {
            successors[fill[src as usize] as usize] = id.0;
            fill[src as usize] += 1;
        }
    }

    // The order doubles as the FIFO queue: `head` is the next cell to
    // release.
    let mut order: Vec<CellId> = netlist
        .comb_cells()
        .filter(|(id, _)| in_degree[id.index()] == 0)
        .map(|(id, _)| id)
        .collect();
    let mut head = 0;
    while let Some(&c) = order.get(head) {
        head += 1;
        for &s in &successors[first[c.index()] as usize..first[c.index() + 1] as usize] {
            let s = s as usize;
            in_degree[s] -= 1;
            if in_degree[s] == 0 {
                order.push(CellId(s as u32));
            }
        }
    }

    let comb = netlist.comb_cells().count();
    if order.len() != comb {
        return Err(NetlistError::CombinationalLoop(cycle_net(
            netlist,
            &in_degree,
            &comb_driver,
        )));
    }
    Ok(order)
}

/// The name of a net on a combinational cycle, once Kahn's algorithm has
/// stalled.  Every cell it never released still has a never-released
/// combinational predecessor, so walking those predecessors from any stuck
/// cell must revisit a cell, and that cell lies on a cycle.
fn cycle_net(
    netlist: &Netlist,
    in_degree: &[u32],
    comb_driver: &impl Fn(NetId) -> Option<u32>,
) -> String {
    let stuck = |c: u32| in_degree[c as usize] > 0;
    let mut visited = vec![false; in_degree.len()];
    let mut c = (0..in_degree.len() as u32)
        .find(|&c| stuck(c))
        .expect("a stalled sort leaves a cell behind");
    while !visited[c as usize] {
        visited[c as usize] = true;
        c = netlist
            .cell(CellId(c))
            .inputs
            .iter()
            .filter_map(|&i| comb_driver(i))
            .find(|&p| stuck(p))
            .expect("a stuck cell has a stuck predecessor");
    }
    netlist.net(netlist.cell(CellId(c)).output).name.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::cell::RegKind;

    #[test]
    fn order_respects_dependencies() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.and("x", a, c);
        let y = b.or("y", x, a);
        let z = b.xor("z", y, x);
        b.mark_output(z);
        let n = b.finish().expect("valid");
        let order = eval_order(&n).expect("acyclic");
        assert_eq!(order.len(), 3);
        let pos: Vec<usize> = ["x", "y", "z"]
            .iter()
            .map(|name| {
                let net = n.find_net(name).unwrap();
                order.iter().position(|&c| n.cell(c).output == net).unwrap()
            })
            .collect();
        assert!(pos[0] < pos[1] && pos[1] < pos[2]);
    }

    #[test]
    fn registers_break_cycles() {
        // q feeds back through an inverter into its own data input: legal,
        // because the register breaks the loop.
        let mut b = NetlistBuilder::new("t");
        let clk = b.input("clk");
        let tmp = b.constant(false);
        let q = b.reg("q", RegKind::Simple, tmp, clk, None, None);
        let nq = b.not("nq", q);
        b.patch_reg_data(q, nq);
        b.mark_output(q);
        let n = b.finish().expect("valid");
        let order = eval_order(&n).expect("registers break the cycle");
        assert_eq!(order.len(), 1);
    }

    #[test]
    fn combinational_loop_detected() {
        // x = a AND y; y = NOT x — a purely combinational cycle, built
        // through the raw constructor because the builder cannot produce it.
        // z = NOT x reads the cycle without lying on it, and is cell 0, so
        // it is the first cell the stalled sort leaves behind.
        use crate::cell::{Cell, CellKind, GateOp};
        use crate::netlist::{Net, NetDriver, Netlist};
        use std::collections::HashMap;
        let net = |name: &str, driver| Net {
            name: name.into(),
            driver,
        };
        let nets = vec![
            net("a", NetDriver::Input),
            net("x", NetDriver::Cell(CellId(1))),
            net("y", NetDriver::Cell(CellId(2))),
            net("z", NetDriver::Cell(CellId(0))),
        ];
        let gate = |name: &str, op, inputs: &[u32], output| Cell {
            name: name.into(),
            kind: CellKind::Gate(op),
            inputs: inputs.iter().map(|&i| NetId(i)).collect(),
            output: NetId(output),
        };
        let cells = vec![
            gate("z", GateOp::Not, &[1], 3),
            gate("x", GateOp::And, &[0, 2], 1),
            gate("y", GateOp::Not, &[1], 2),
        ];
        let by_name: HashMap<String, NetId> = nets
            .iter()
            .enumerate()
            .map(|(i, n)| (n.name.clone(), NetId(i as u32)))
            .collect();
        let cyclic = Netlist::new_raw(
            "cyclic".into(),
            nets,
            cells,
            vec![NetId(0)],
            vec![NetId(3)],
            by_name,
        );
        match eval_order(&cyclic) {
            Err(NetlistError::CombinationalLoop(name)) => {
                assert!(name == "x" || name == "y", "{name} is not on the cycle");
            }
            other => panic!("expected a combinational loop, got {other:?}"),
        }
    }
}
