//! Memory pin of the structural-hash table on a real design: a rebuild into
//! a buffer pre-sized by `Aig::reserve_for` never regrows the table, and the
//! table stays within four 4-byte slots per AND.

use aig::{Aig, AigScratch};
use circuits::{Design, DesignScale};

#[test]
fn reserved_cleanup_of_aes128_small_never_regrows_the_strash() {
    let src = Design::Aes128.generate(DesignScale::Small);
    let mut out = Aig::new();
    out.reserve_for(src.len(), src.num_ands());
    let reserved = out.strash_capacity();
    assert!(reserved > 0);

    src.cleanup_into_with(&mut out, &mut AigScratch::default());
    assert_eq!(out.strash_capacity(), reserved, "the table regrew");
    assert!(out.num_ands() > 10_000, "aes128@Small keeps its ~18k ANDs");
    assert!(
        out.strash_capacity() <= 4 * out.num_ands(),
        "{} slots for {} ANDs",
        out.strash_capacity(),
        out.num_ands()
    );
}
