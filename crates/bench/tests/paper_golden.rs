//! Golden pin of the paper tables: every [`SchemeStats`] field of Table I
//! and Table II at [`ExperimentParams::quick`], to the bit.
//!
//! The windowed searches behind these tables are heavily optimized (branch
//! and bound, lane-parallel scoring, memoized distances), and each
//! optimization must leave every winner, so every number here, unchanged.
//! The values are those of the plain windowed brute force each search is
//! unit-tested against. A change that moves one must say why in the
//! changelog and re-pin it.

use repro_bench::experiments::{table1_with, table2_with, ComparisonResult};
use repro_bench::runner::{ExperimentParams, SchemeStats};

/// `(name, extra_pgm_us bits, extra_ers_us bits, superblocks)`, baseline
/// first, then the roster in table order.
type Golden = (&'static str, u64, u64, usize);

const TABLE1: [Golden; 9] = [
    ("Random", 0x40a9_f577_7777_7778, 0x4044_a800_0000_0000, 96),
    ("Sequential", 0x40a4_871d_dddd_dddb, 0x4043_d000_0000_0000, 96),
    ("ERS-LTN", 0x40a6_b78c_cccc_cccd, 0x4033_c000_0000_0000, 96),
    ("PGM-LTN", 0x40a3_6aae_eeee_eef0, 0x403d_3000_0000_0000, 96),
    ("Optimal(8)", 0x40a3_1348_8888_888b, 0x403e_7000_0000_0000, 96),
    ("LWL-RANK(8)", 0x40a3_dc88_8888_8888, 0x403f_1000_0000_0000, 96),
    ("PWL-RANK(8)", 0x40a3_1844_4444_4445, 0x403f_c000_0000_0000, 96),
    ("STR-RANK(8)", 0x40a3_38d9_9999_9997, 0x4040_0800_0000_0000, 96),
    ("STR-MED(4)", 0x40a2_f251_1111_1110, 0x403d_6000_0000_0000, 96),
];

const TABLE2: [Golden; 5] = [
    ("Random", 0x40a9_f577_7777_7778, 0x4044_a800_0000_0000, 96),
    ("STR-RANK(8)", 0x40a3_38d9_9999_9997, 0x4040_0800_0000_0000, 96),
    ("STR-RANK(6)", 0x40a3_1222_2222_2220, 0x403f_b000_0000_0000, 96),
    ("STR-RANK(4)", 0x40a2_bdcc_cccc_cccb, 0x403d_5000_0000_0000, 96),
    ("STR-RANK(2)", 0x40a3_196a_aaaa_aaac, 0x403c_b000_0000_0000, 96),
];

fn assert_pinned(table: &str, result: &ComparisonResult, golden: &[Golden]) {
    let rows: Vec<&SchemeStats> =
        std::iter::once(&result.baseline).chain(&result.schemes).collect();
    assert_eq!(rows.len(), golden.len(), "{table}: row count");
    for (row, &(name, pgm, ers, superblocks)) in rows.iter().zip(golden) {
        assert_eq!(row.name, name, "{table}: roster order");
        assert_eq!(
            (row.extra_pgm_us.to_bits(), row.extra_ers_us.to_bits(), row.superblocks),
            (pgm, ers, superblocks),
            "{table} {name}: extra_pgm_us {} extra_ers_us {}",
            row.extra_pgm_us,
            row.extra_ers_us,
        );
    }
}

#[test]
fn paper_tables_match_golden_bits() {
    let params = ExperimentParams::quick();
    let cache = params.cache();
    assert_pinned("Table I", &table1_with(&params, &cache), &TABLE1);
    assert_pinned("Table II", &table2_with(&params, &cache), &TABLE2);
}
