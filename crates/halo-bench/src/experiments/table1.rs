//! Table 1: instruction count and mix of a single software cuckoo
//! lookup.

use halo_cpu::{build_sw_lookup, Scratch};
use halo_mem::{MachineConfig, MemorySystem};
use halo_sim::{fmt_f64, TextTable};
use halo_tables::{CuckooTable, FlowKey};

/// Measured instruction mix of one software lookup.
#[derive(Debug, Clone, Copy)]
pub struct Table1Row {
    /// Total micro-ops per lookup.
    pub instructions: usize,
    /// Fraction of loads.
    pub load_frac: f64,
    /// Fraction of stores.
    pub store_frac: f64,
    /// Fraction of arithmetic + control (computes).
    pub other_frac: f64,
}

/// Runs the Table 1 measurement.
#[must_use]
pub fn run() -> Table1Row {
    let mut sys = MemorySystem::new(MachineConfig::default());
    let mut table = CuckooTable::create(sys.data_mut(), 1024, 13);
    for id in 0..1000u64 {
        table
            .insert(sys.data_mut(), &FlowKey::synthetic(id, 13), id)
            .expect("sized for 1000");
    }
    let mut scratch = Scratch::new(&mut sys);
    // Average over many lookups (trace shape varies with sig matches).
    let mut total = 0usize;
    let mut loads = 0usize;
    let mut stores = 0usize;
    const N: u64 = 200;
    for id in 0..N {
        let tr = table.lookup_traced(sys.data_mut(), &FlowKey::synthetic(id, 13), true);
        let prog = build_sw_lookup(&tr, &mut scratch, None);
        let (l, s, _) = prog.mix();
        total += prog.len();
        loads += l;
        stores += s;
    }
    let n = N as usize;
    let instructions = total / n;
    let load_frac = loads as f64 / total as f64;
    let store_frac = stores as f64 / total as f64;
    Table1Row {
        instructions,
        load_frac,
        store_frac,
        other_frac: 1.0 - load_frac - store_frac,
    }
}

/// Formats the result like the paper's Table 1.
#[must_use]
pub fn table() -> TextTable {
    let r = run();
    let mut t = TextTable::new(vec![
        "solution",
        "#instructions/lookup",
        "memory (load/store)",
        "arith+others",
    ]);
    t.row(vec![
        "OVS/Cuckoo hash".into(),
        r.instructions.to_string(),
        format!(
            "{}% ({}%/{}%)",
            fmt_f64(100.0 * (r.load_frac + r.store_frac)),
            fmt_f64(100.0 * r.load_frac),
            fmt_f64(100.0 * r.store_frac)
        ),
        format!("{}%", fmt_f64(100.0 * r.other_frac)),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_table1() {
        let r = run();
        // Paper: ~210 instructions; 36.2% load, 11.8% store.
        assert!(
            (200..=225).contains(&r.instructions),
            "instructions {}",
            r.instructions
        );
        assert!((r.load_frac - 0.362).abs() < 0.03, "loads {}", r.load_frac);
        assert!(
            (r.store_frac - 0.118).abs() < 0.03,
            "stores {}",
            r.store_frac
        );
    }
}
