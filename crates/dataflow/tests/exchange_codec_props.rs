//! Property test for the shared record decoder: decoding arbitrary payload
//! bytes under an arbitrary record count returns exactly that many records
//! or a typed [`SpillError::Corrupt`], never a panic.

use proptest::prelude::*;
use tgraph_dataflow::{decode_records, SpillError};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_payloads_decode_or_fail_typed(
        payload in prop::collection::vec(0u8..=255, 0..300),
        count in 0u64..64,
        lying in prop::bool::ANY,
    ) {
        // A count far beyond what the payload can hold must fail typed too.
        let records = if lying { count << 40 } else { count };
        let mut rows: Vec<(u64, String)> = Vec::new();
        match decode_records(&payload, records, &mut rows) {
            Ok(()) => prop_assert_eq!(rows.len() as u64, records),
            Err(SpillError::Corrupt { .. }) => {}
            Err(other) => prop_assert!(false, "untyped failure: {other}"),
        }
    }
}
