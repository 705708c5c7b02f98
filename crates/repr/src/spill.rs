//! [`Spill`] codecs for the physical-representation record types, so OG and
//! OGC datasets can cross governed shuffles and spill to disk runs when a
//! memory budget is in force. Exact roundtrip, matching the governor's
//! byte-identical-results contract.

use crate::og::{OgEdge, OgVertex};
use crate::ogc::{OgcEdge, OgcVertex};
use crate::rg::RgSnapshot;
use std::sync::Arc;
use tgraph_core::bitset::Bitset;
use tgraph_core::{EdgeId, Interval, Props, VertexId};
use tgraph_dataflow::{DecodeError, HeapSize, Spill, SpillReader};

impl HeapSize for OgVertex {
    fn heap_bytes(&self) -> usize {
        self.history.heap_bytes()
    }
}

impl Spill for OgVertex {
    fn spill(&self, out: &mut Vec<u8>) {
        self.vid.spill(out);
        self.history.spill(out);
    }
    fn unspill(r: &mut SpillReader<'_>) -> Result<Self, DecodeError> {
        Ok(OgVertex {
            vid: VertexId::unspill(r)?,
            history: Vec::<(Interval, Props)>::unspill(r)?,
        })
    }
}

impl HeapSize for OgEdge {
    /// Each endpoint is charged as the copy it stands for, shared or not.
    fn heap_bytes(&self) -> usize {
        self.src.heap_bytes() + self.dst.heap_bytes() + self.history.heap_bytes()
    }
}

impl Spill for OgEdge {
    fn spill(&self, out: &mut Vec<u8>) {
        self.eid.spill(out);
        self.src.spill(out);
        self.dst.spill(out);
        self.history.spill(out);
    }
    fn unspill(r: &mut SpillReader<'_>) -> Result<Self, DecodeError> {
        Ok(OgEdge {
            eid: EdgeId::unspill(r)?,
            src: Arc::<OgVertex>::unspill(r)?,
            dst: Arc::<OgVertex>::unspill(r)?,
            history: Vec::<(Interval, Props)>::unspill(r)?,
        })
    }
}

impl HeapSize for OgcVertex {
    fn heap_bytes(&self) -> usize {
        self.vtype.len() + self.intervals.heap_bytes()
    }
}

impl Spill for OgcVertex {
    fn spill(&self, out: &mut Vec<u8>) {
        self.vid.spill(out);
        self.vtype.spill(out);
        self.intervals.spill(out);
    }
    fn unspill(r: &mut SpillReader<'_>) -> Result<Self, DecodeError> {
        Ok(OgcVertex {
            vid: VertexId::unspill(r)?,
            vtype: Arc::<str>::unspill(r)?,
            intervals: Bitset::unspill(r)?,
        })
    }
}

impl HeapSize for OgcEdge {
    fn heap_bytes(&self) -> usize {
        self.etype.len() + self.intervals.heap_bytes()
    }
}

impl Spill for OgcEdge {
    fn spill(&self, out: &mut Vec<u8>) {
        self.eid.spill(out);
        self.src.spill(out);
        self.dst.spill(out);
        self.etype.spill(out);
        self.intervals.spill(out);
    }
    fn unspill(r: &mut SpillReader<'_>) -> Result<Self, DecodeError> {
        Ok(OgcEdge {
            eid: EdgeId::unspill(r)?,
            src: VertexId::unspill(r)?,
            dst: VertexId::unspill(r)?,
            etype: Arc::<str>::unspill(r)?,
            intervals: Bitset::unspill(r)?,
        })
    }
}

impl HeapSize for RgSnapshot {
    fn heap_bytes(&self) -> usize {
        self.vertices.heap_bytes() + self.edges.heap_bytes()
    }
}

impl Spill for RgSnapshot {
    fn spill(&self, out: &mut Vec<u8>) {
        self.interval.spill(out);
        self.vertices.spill(out);
        self.edges.spill(out);
    }
    fn unspill(r: &mut SpillReader<'_>) -> Result<Self, DecodeError> {
        Ok(RgSnapshot {
            interval: Interval::unspill(r)?,
            vertices: Vec::<(VertexId, Props)>::unspill(r)?,
            edges: Vec::<(EdgeId, VertexId, VertexId, Props)>::unspill(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph_dataflow::charged_size;

    fn roundtrip<T: Spill + PartialEq + std::fmt::Debug>(x: &T) {
        let mut buf = Vec::new();
        x.spill(&mut buf);
        let mut r = SpillReader::new(&buf);
        let back = T::unspill(&mut r).expect("decode");
        assert_eq!(&back, x);
        assert_eq!(r.remaining(), 0, "codec must consume exactly its bytes");
    }

    fn og_edge() -> OgEdge {
        OgEdge {
            eid: EdgeId(1),
            src: Arc::new(OgVertex {
                vid: VertexId(7),
                history: vec![
                    (Interval::new(0, 3), Props::typed("person")),
                    (
                        Interval::new(5, 9),
                        Props::typed("person").with("age", 30i64),
                    ),
                ],
            }),
            dst: Arc::new(OgVertex {
                vid: VertexId(8),
                history: vec![],
            }),
            history: vec![(Interval::new(1, 2), Props::typed("knows"))],
        }
    }

    #[test]
    fn og_records_roundtrip() {
        let e = og_edge();
        roundtrip(e.src.as_ref());
        roundtrip(&e);
        assert!(e.heap_bytes() > 0);
    }

    #[test]
    fn og_edges_frame_and_charge_their_endpoints_as_copies() {
        let e = og_edge();
        let mut buf = Vec::new();
        e.spill(&mut buf);
        // `len:checksum` of this edge's encoding. An `Arc` endpoint writes
        // its pointee's bytes, so sharing the endpoints moves no byte of a
        // frame or run.
        assert_eq!(
            (buf.len(), tgraph_dataflow::checksum(&buf)),
            (174, 0x2250_fb54_6081_ef04)
        );
        // Both endpoint histories are charged, as for copies.
        assert_eq!(
            e.heap_bytes(),
            charged_size(e.src.as_ref()) + charged_size(e.dst.as_ref()) + e.history.heap_bytes()
        );
    }

    #[test]
    fn ogc_records_roundtrip() {
        let mut bits = Bitset::new(10);
        bits.set(2);
        bits.set(9);
        let v = OgcVertex {
            vid: VertexId(3),
            vtype: Arc::from("person"),
            intervals: bits.clone(),
        };
        roundtrip(&v);
        let e = OgcEdge {
            eid: EdgeId(4),
            src: VertexId(3),
            dst: VertexId(5),
            etype: Arc::from("knows"),
            intervals: bits,
        };
        roundtrip(&e);
    }
}
