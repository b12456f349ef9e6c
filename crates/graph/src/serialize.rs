//! Binary persistence for proximity graphs.
//!
//! MRPG construction is the expensive offline step (paper Table 3); a real
//! deployment builds once and reuses the index across process restarts.
//! The format is a simple length-prefixed little-endian layout with a magic
//! header and version byte — no self-describing schema, because the graph
//! is rebuilt rather than migrated when the format changes.
//!
//! ```text
//! magic "DODG" | version u8 | kind u8 | flags u8 |
//! n u64 | adjacency: n × (len u32, ids u32…) |
//! pivots: bitset (n bits, padded to bytes) |
//! exact: count u64 × (id u32, len u32, dists f64…)
//! ```
//!
//! The stored exact-neighbor distances are distance-kernel outputs, and
//! the exact-K′ shortcut compares them with `d <= r` against freshly
//! computed ones, so the version also names the kernel's reduction order:
//!
//! - version 1: sequential `f64` sums;
//! - version 2: the fixed 8-lane reduction of `dod_metrics` (current).
//!
//! A version-1 file is refused rather than read: its distances can differ
//! from today's kernel in the last bits, enough to flip a decision at
//! `d == r`. Rebuild the graph instead.

use crate::graph::{ExactNn, GraphKind, ProximityGraph};
use bytes::{BufMut, Bytes, BytesMut};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"DODG";
const VERSION: u8 = 2;

fn kind_to_u8(kind: GraphKind) -> u8 {
    match kind {
        GraphKind::Nsw => 0,
        GraphKind::KGraph => 1,
        GraphKind::MrpgBasic => 2,
        GraphKind::Mrpg => 3,
    }
}

fn kind_from_u8(v: u8) -> Option<GraphKind> {
    Some(match v {
        0 => GraphKind::Nsw,
        1 => GraphKind::KGraph,
        2 => GraphKind::MrpgBasic,
        3 => GraphKind::Mrpg,
        _ => return None,
    })
}

/// Serializes the graph into an owned byte buffer.
pub fn to_bytes(g: &ProximityGraph) -> Bytes {
    let mut buf =
        BytesMut::with_capacity(16 + g.link_count() * 4 + g.node_count() / 8 + g.exact.len() * 64);
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(kind_to_u8(g.kind));
    let flags = u8::from(g.expand_pivots) | (u8::from(g.use_exact_shortcut) << 1);
    buf.put_u8(flags);
    buf.put_u64_le(g.node_count() as u64);
    for l in &g.adj {
        buf.put_u32_le(l.len() as u32);
        for &v in l {
            buf.put_u32_le(v);
        }
    }
    // Pivot bitset.
    let mut byte = 0u8;
    for (i, &p) in g.pivot.iter().enumerate() {
        if p {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            buf.put_u8(byte);
            byte = 0;
        }
    }
    if !g.pivot.len().is_multiple_of(8) {
        buf.put_u8(byte);
    }
    // Exact prefixes, sorted by id for deterministic output.
    let mut ids: Vec<u32> = g.exact.keys().copied().collect();
    ids.sort_unstable();
    buf.put_u64_le(ids.len() as u64);
    for id in ids {
        let e = &g.exact[&id];
        buf.put_u32_le(id);
        buf.put_u32_le(e.dists.len() as u32);
        for &d in &e.dists {
            buf.put_f64_le(d);
        }
    }
    buf.freeze()
}

/// Error type for [`from_bytes`] / [`read_from`].
#[derive(Debug)]
pub enum DecodeError {
    /// The payload is truncated or structurally invalid at `offset` bytes
    /// from the start of the graph blob.
    Corrupt {
        /// Byte offset where decoding failed.
        offset: usize,
        /// What was wrong, in words.
        reason: &'static str,
    },
    /// Underlying IO failure.
    Io(io::Error),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Corrupt { offset, reason } => {
                write!(f, "corrupt graph file at offset {offset}: {reason}")
            }
            DecodeError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<io::Error> for DecodeError {
    fn from(e: io::Error) -> Self {
        DecodeError::Io(e)
    }
}

/// Bounds-checked little-endian cursor that remembers how far it got, so
/// every decode failure can report the exact byte offset.
struct Cursor<'a> {
    data: &'a [u8],
    total: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Cursor {
            data,
            total: data.len(),
        }
    }

    fn offset(&self) -> usize {
        self.total - self.data.len()
    }

    fn corrupt<T>(&self, reason: &'static str) -> Result<T, DecodeError> {
        Err(DecodeError::Corrupt {
            offset: self.offset(),
            reason,
        })
    }

    fn need(&self, n: usize, what: &'static str) -> Result<(), DecodeError> {
        if self.data.len() < n {
            self.corrupt(what)
        } else {
            Ok(())
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        self.need(n, what)?;
        let (head, tail) = self.data.split_at(n);
        self.data = tail;
        Ok(head)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, DecodeError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f64(&mut self, what: &'static str) -> Result<f64, DecodeError> {
        let b = self.take(8, what)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
}

/// Deserializes a graph from bytes produced by [`to_bytes`].
pub fn from_bytes(data: &[u8]) -> Result<ProximityGraph, DecodeError> {
    let mut c = Cursor::new(data);
    if c.take(4, "truncated magic")? != MAGIC {
        // The magic starts at offset 0 no matter how far `take` advanced.
        return Err(DecodeError::Corrupt {
            offset: 0,
            reason: "bad magic",
        });
    }
    if c.u8("truncated version")? != VERSION {
        return c.corrupt("unsupported version");
    }
    let kind = match kind_from_u8(c.u8("truncated graph kind")?) {
        Some(kind) => kind,
        None => return c.corrupt("bad graph kind"),
    };
    let flags = c.u8("truncated flags")?;
    let n = c.u64("truncated node count")? as usize;
    // An adjacency list costs at least 4 bytes per node; reject absurd
    // counts before allocating `n` vectors.
    if n > c.data.len() / 4 + 1 {
        return c.corrupt("node count exceeds payload size");
    }

    let mut g = ProximityGraph::new(n, kind);
    g.expand_pivots = flags & 1 != 0;
    g.use_exact_shortcut = flags & 2 != 0;
    for i in 0..n {
        let len = c.u32("truncated adjacency length")? as usize;
        let bytes = c.take(len * 4, "truncated adjacency list")?;
        let mut l = Vec::with_capacity(len);
        for chunk in bytes.chunks_exact(4) {
            let v = u32::from_le_bytes(chunk.try_into().expect("4 bytes"));
            if v as usize >= n {
                return c.corrupt("adjacency id out of bounds");
            }
            l.push(v);
        }
        g.adj[i] = l;
    }
    let pivots = c.take(n.div_ceil(8), "truncated pivot bitset")?;
    for i in 0..n {
        g.pivot[i] = pivots[i / 8] & (1 << (i % 8)) != 0;
    }
    let exact_count = c.u64("truncated exact count")? as usize;
    if exact_count > n {
        return c.corrupt("exact entry count exceeds node count");
    }
    for _ in 0..exact_count {
        let id = c.u32("truncated exact entry id")?;
        if id as usize >= n {
            return c.corrupt("exact id out of bounds");
        }
        let len = c.u32("truncated exact entry length")? as usize;
        if len > g.adj[id as usize].len() {
            return c.corrupt("exact prefix longer than adjacency");
        }
        let mut dists = Vec::with_capacity(len);
        for _ in 0..len {
            dists.push(c.f64("truncated exact distances")?);
        }
        g.exact.insert(id, ExactNn { dists });
    }
    Ok(g)
}

/// Writes the graph to any [`Write`] sink (e.g. a file).
pub fn write_to<W: Write>(g: &ProximityGraph, mut w: W) -> io::Result<()> {
    w.write_all(&to_bytes(g))
}

/// Reads a graph from any [`Read`] source.
pub fn read_from<R: Read>(mut r: R) -> Result<ProximityGraph, DecodeError> {
    let mut buf = Vec::new();
    r.read_to_end(&mut buf)?;
    from_bytes(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mrpg::{self, MrpgParams};
    use dod_metrics::{VectorSet, L2};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_graph() -> ProximityGraph {
        let mut rng = StdRng::seed_from_u64(3);
        let rows: Vec<Vec<f32>> = (0..150)
            .map(|_| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)])
            .collect();
        let data = VectorSet::from_rows(&rows, L2);
        let mut p = MrpgParams::new(6);
        p.exact_m = Some(10);
        mrpg::build(&data, &p).0
    }

    fn assert_graphs_equal(a: &ProximityGraph, b: &ProximityGraph) {
        assert_eq!(a.adj, b.adj);
        assert_eq!(a.pivot, b.pivot);
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.expand_pivots, b.expand_pivots);
        assert_eq!(a.use_exact_shortcut, b.use_exact_shortcut);
        assert_eq!(a.exact.len(), b.exact.len());
        for (id, e) in &a.exact {
            assert_eq!(e.dists, b.exact[id].dists);
        }
    }

    #[test]
    fn round_trips_an_mrpg() {
        let g = sample_graph();
        let bytes = to_bytes(&g);
        let g2 = from_bytes(&bytes).expect("decode");
        assert_graphs_equal(&g, &g2);
        g2.assert_invariants();
    }

    #[test]
    fn round_trips_through_io() {
        let g = sample_graph();
        let mut buf = Vec::new();
        write_to(&g, &mut buf).expect("write");
        let g2 = read_from(&buf[..]).expect("read");
        assert_graphs_equal(&g, &g2);
    }

    #[test]
    fn round_trips_empty_graph() {
        let g = ProximityGraph::new(0, GraphKind::KGraph);
        let g2 = from_bytes(&to_bytes(&g)).expect("decode");
        assert_eq!(g2.node_count(), 0);
        assert_eq!(g2.kind, GraphKind::KGraph);
    }

    #[test]
    fn rejects_corruption() {
        let g = sample_graph();
        let bytes = to_bytes(&g).to_vec();
        // Bad magic reports offset 0.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            from_bytes(&bad),
            Err(DecodeError::Corrupt {
                offset: 0,
                reason: "bad magic"
            })
        ));
        // Bad version reports the byte after the 4-byte magic.
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(matches!(
            from_bytes(&bad),
            Err(DecodeError::Corrupt {
                offset: 5,
                reason: "unsupported version"
            })
        ));
        // Truncations at every prefix length must error, not panic, and
        // the reported offset can never exceed the payload we handed in.
        for cut in [0, 3, 10, 20, bytes.len() / 2, bytes.len() - 1] {
            match from_bytes(&bytes[..cut]) {
                Err(DecodeError::Corrupt { offset, .. }) => {
                    assert!(offset <= cut, "offset {offset} beyond cut {cut}")
                }
                Err(e) => panic!("cut at {cut}: unexpected error kind {e}"),
                Ok(_) => panic!("cut at {cut} accepted"),
            }
        }
    }

    #[test]
    fn rejects_version_one_payloads() {
        // Version 1 stored distances from the sequential-sum kernel.
        let mut bytes = to_bytes(&sample_graph()).to_vec();
        assert_eq!(bytes[4], 2);
        bytes[4] = 1;
        assert!(matches!(
            from_bytes(&bytes),
            Err(DecodeError::Corrupt {
                offset: 5,
                reason: "unsupported version"
            })
        ));
    }

    #[test]
    fn rejects_out_of_bounds_ids() {
        let mut g = ProximityGraph::new(2, GraphKind::KGraph);
        g.add_undirected(0, 1);
        let mut bytes = to_bytes(&g).to_vec();
        // The first adjacency id lives right after the 4-byte list length
        // that follows the 15-byte header; overwrite it with a huge id.
        bytes[19..23].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn output_is_deterministic() {
        let g = sample_graph();
        assert_eq!(to_bytes(&g), to_bytes(&g));
    }
}
