//! One corruption table through the three file readers. Whatever a damaged
//! `.tgc`/`.tgo` file claims about itself, `read_tgc`, `read_tgc_stats` and
//! `read_tgo` answer damage they can see with a typed `StorageError` — never
//! a panic, and never an allocation sized by a number the file made up (a
//! chunk count of `u32::MAX` once aborted the process from inside
//! `read_tgc_stats`).

use tgraph_datagen::WikiTalk;
use tgraph_storage::{
    read_tgc, read_tgc_stats, read_tgo, write_tgc, write_tgo, DecodeError, StorageError,
};

/// Byte widths of a format's file header and chunk header. A file header
/// ends with the two `u32` chunk counts; a chunk header ends with `u32` rows,
/// `u32` payload length and the `u64` checksum, and the payload follows it.
#[derive(Clone, Copy)]
struct Layout {
    file_header: usize,
    chunk_header: usize,
}

const TGC: Layout = Layout {
    file_header: 29,
    chunk_header: 48,
};
const TGO: Layout = Layout {
    file_header: 28,
    chunk_header: 32,
};

fn put_u32(raw: &mut [u8], at: usize, value: u32) {
    raw[at..at + 4].copy_from_slice(&value.to_le_bytes());
}

fn get_u32(raw: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(raw[at..at + 4].try_into().expect("four bytes"))
}

/// What a reader must answer for one damaged file.
#[derive(Clone, Debug)]
enum Want {
    /// This decode error exactly.
    Err(DecodeError),
    /// Success: the damage is in bytes this reader never looks at.
    Unseen,
}

/// One row of the table: a way to damage a file, and what each reader must
/// answer (`read_tgc` and `read_tgc_stats` for the damaged `.tgc`, `read_tgo`
/// for the `.tgo` damaged the same way).
struct Case {
    name: &'static str,
    damage: fn(&mut Vec<u8>, Layout),
    tgc: Want,
    stats: Want,
    tgo: Want,
}

const EOF: Want = Want::Err(DecodeError::UnexpectedEof);
const MAGIC: Want = Want::Err(DecodeError::BadMagic);
const CHECKSUM: Want = Want::Err(DecodeError::ChecksumMismatch);

#[rustfmt::skip]
const CASES: &[Case] = &[
    Case { name: "bad magic", tgc: MAGIC, stats: MAGIC, tgo: MAGIC,
        damage: |raw, _| raw[0] = b'X' },
    Case { name: "truncated file header", tgc: EOF, stats: EOF, tgo: EOF,
        damage: |raw, _| raw.truncate(10) },
    // A lifespan that ends before it starts: no writer produces one.
    Case { name: "inverted lifespan", tgc: MAGIC, stats: MAGIC, tgo: MAGIC,
        damage: |raw, at| raw[at.file_header - 24..][..8].copy_from_slice(&i64::MAX.to_le_bytes()) },
    Case { name: "lying chunk count", tgc: EOF, stats: EOF, tgo: EOF,
        damage: |raw, at| put_u32(raw, at.file_header - 8, u32::MAX) },
    Case { name: "lying chunk length", tgc: EOF, stats: EOF, tgo: EOF,
        damage: |raw, at| put_u32(raw, at.file_header + at.chunk_header - 12, u32::MAX) },
    // The header-only reader has no payload to count the rows of.
    Case { name: "lying row count", tgc: EOF, stats: Want::Unseen, tgo: EOF,
        damage: |raw, at| {
            let rows = at.file_header + at.chunk_header - 16;
            let one_more = get_u32(raw, rows) + 1;
            put_u32(raw, rows, one_more);
        } },
    Case { name: "truncated payload", tgc: EOF, stats: EOF, tgo: EOF,
        damage: |raw, _| raw.truncate(raw.len() - 5) },
    Case { name: "one flipped payload byte", tgc: CHECKSUM, stats: Want::Unseen, tgo: CHECKSUM,
        damage: |raw, at| raw[at.file_header + at.chunk_header + 9] ^= 0x40 },
    // Only `.tgc` has a sort-order byte after the magic; in a `.tgo` the
    // same byte belongs to the lifespan, which nothing can check.
    Case { name: "bad sort-order byte", tgc: MAGIC, stats: MAGIC, tgo: Want::Unseen,
        damage: |raw, _| raw[4] = 7 },
];

fn check<T>(case: &str, reader: &str, got: Result<T, StorageError>, want: &Want) {
    match (got, want) {
        (Ok(_), Want::Unseen) => {}
        (Err(StorageError::Decode(e)), Want::Err(w)) if e == *w => {}
        (got, want) => panic!(
            "{case} through {reader}: wanted {want:?}, got {:?}",
            got.map(|_| "Ok")
        ),
    }
}

#[test]
fn damaged_files_fail_typed_through_every_reader() {
    let dir = std::env::temp_dir().join("tgraph-tier1-storage-corruption");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let g = WikiTalk {
        vertices: 80,
        months: 12,
        edges_per_vertex: 3.0,
        edge_survival: 0.2,
        edit_count_values: 6,
        seed: 0x5EED,
    }
    .generate();
    // 16-row chunks: several chunks per section, so the damaged first chunk
    // has intact ones behind it.
    let (flat, nested) = (dir.join("intact.tgc"), dir.join("intact.tgo"));
    write_tgc(&flat, &g, 16).expect("write .tgc");
    write_tgo(&nested, &g, 16).expect("write .tgo");
    let flat = std::fs::read(flat).expect("read .tgc back");
    let nested = std::fs::read(nested).expect("read .tgo back");

    let damaged = dir.join("damaged");
    for case in CASES {
        let mut raw = flat.clone();
        (case.damage)(&mut raw, TGC);
        std::fs::write(&damaged, &raw).expect("write damaged .tgc");
        check(case.name, "read_tgc", read_tgc(&damaged, None), &case.tgc);
        let stats = read_tgc_stats(&damaged);
        check(case.name, "read_tgc_stats", stats, &case.stats);

        let mut raw = nested.clone();
        (case.damage)(&mut raw, TGO);
        std::fs::write(&damaged, &raw).expect("write damaged .tgo");
        check(case.name, "read_tgo", read_tgo(&damaged, None), &case.tgo);
    }
}
