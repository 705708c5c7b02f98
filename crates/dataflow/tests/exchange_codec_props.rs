//! Property test for the frame codec: decoding arbitrary payload bytes under
//! an arbitrary record count returns records or a typed
//! [`ExchangeError::Frame`], never a panic.

use proptest::prelude::*;
use tgraph_dataflow::{ExchangeError, Frame};

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
        let frame = Frame { src: 0, bucket: 0, records, payload: payload.clone() };
        match frame.records::<(u64, String)>() {
            Ok(rows) => prop_assert_eq!(rows.len() as u64, records),
            Err(ExchangeError::Frame { .. }) => {}
        }
    }
}
