//! One corruption table through the two readers of the `.tgc` file.
//! Whatever a damaged file claims about itself, `read_tgc` and
//! `read_tgc_stats` answer damage they can see with a typed `StorageError` —
//! never a panic, and never an allocation sized by a number the file made
//! up (a chunk count of `u32::MAX` once aborted the process from inside
//! `read_tgc_stats`).

use tgraph_datagen::WikiTalk;
use tgraph_storage::{read_tgc, read_tgc_stats, write_tgc, DecodeError, StorageError};

/// Byte width of the file header, which ends with the two `u32` chunk
/// counts.
const FILE_HEADER: usize = 29;
/// Byte width of a chunk header, which ends with `u32` rows, `u32` payload
/// length and the `u64` checksum; the payload follows it.
const CHUNK_HEADER: usize = 48;

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
/// answer.
struct Case {
    name: &'static str,
    damage: fn(&mut Vec<u8>),
    tgc: Want,
    stats: Want,
}

const EOF: Want = Want::Err(DecodeError::UnexpectedEof);
const MAGIC: Want = Want::Err(DecodeError::BadMagic);
const CHECKSUM: Want = Want::Err(DecodeError::ChecksumMismatch);

#[rustfmt::skip]
const CASES: &[Case] = &[
    Case { name: "bad magic", tgc: MAGIC, stats: MAGIC,
        damage: |raw| raw[0] = b'X' },
    Case { name: "truncated file header", tgc: EOF, stats: EOF,
        damage: |raw| raw.truncate(10) },
    // A lifespan that ends before it starts: no writer produces one.
    Case { name: "inverted lifespan", tgc: MAGIC, stats: MAGIC,
        damage: |raw| raw[FILE_HEADER - 24..][..8].copy_from_slice(&i64::MAX.to_le_bytes()) },
    Case { name: "lying chunk count", tgc: EOF, stats: EOF,
        damage: |raw| put_u32(raw, FILE_HEADER - 8, u32::MAX) },
    Case { name: "lying chunk length", tgc: EOF, stats: EOF,
        damage: |raw| put_u32(raw, FILE_HEADER + CHUNK_HEADER - 12, u32::MAX) },
    // The header-only reader has no payload to count the rows of.
    Case { name: "lying row count", tgc: EOF, stats: Want::Unseen,
        damage: |raw| {
            let rows = FILE_HEADER + CHUNK_HEADER - 16;
            let one_more = get_u32(raw, rows) + 1;
            put_u32(raw, rows, one_more);
        } },
    Case { name: "truncated payload", tgc: EOF, stats: EOF,
        damage: |raw| raw.truncate(raw.len() - 5) },
    Case { name: "one flipped payload byte", tgc: CHECKSUM, stats: Want::Unseen,
        damage: |raw| raw[FILE_HEADER + CHUNK_HEADER + 9] ^= 0x40 },
    Case { name: "bad sort-order byte", tgc: MAGIC, stats: MAGIC,
        damage: |raw| raw[4] = 7 },
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
    let flat = dir.join("intact.tgc");
    write_tgc(&flat, &g, 16).expect("write .tgc");
    let flat = std::fs::read(flat).expect("read .tgc back");

    let damaged = dir.join("damaged");
    for case in CASES {
        let mut raw = flat.clone();
        (case.damage)(&mut raw);
        std::fs::write(&damaged, &raw).expect("write damaged .tgc");
        check(case.name, "read_tgc", read_tgc(&damaged, None), &case.tgc);
        let stats = read_tgc_stats(&damaged);
        check(case.name, "read_tgc_stats", stats, &case.stats);
    }
}
