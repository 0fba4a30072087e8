//! The `.sgc` compiled-circuit artifact: a versioned, checksummed,
//! dependency-free binary serialization of a [`CompiledCircuit`] plus
//! its [`FingerprintIndex`], for warm-starting searches across
//! processes.
//!
//! # Layout
//!
//! All integers are little-endian. The file is a 32-byte header
//! followed by an exactly-sized payload:
//!
//! ```text
//! offset  size  field
//! 0       8     magic        "SUBGSGC1"
//! 8       4     version      u32, currently 1
//! 12      4     flags        u32, must be 0
//! 16      8     payload_len  u64
//! 24      8     checksum     u64, FNV-1a of the payload, finalized
//! 32      *     payload
//! ```
//!
//! The payload is a fixed sequence of sections: the source digest (u64),
//! the fourteen [`CompiledCircuit`] arrays in declaration order (each a
//! u64 count followed by fixed-width elements; strings are u32-length-
//! prefixed UTF-8), and the fingerprint index (hop-2 cap then the
//! per-device fingerprint array).
//!
//! # Versioning and integrity contract
//!
//! * The version covers everything that affects bytes **or meaning** —
//!   including the fingerprint feature construction and `HOP2_CAP`.
//!   Changing any of those bumps the version; a loader never reinterprets
//!   bytes written under a different version.
//! * Loading never panics: every failure is a structured
//!   [`ArtifactError`].
//! * The checksum rejects accidental corruption; on top of that the
//!   decoded arrays are revalidated against every structural invariant
//!   (`CompiledCircuit::from_raw_parts`), so even a crafted payload with
//!   a matching checksum cannot produce a snapshot that disagrees with
//!   a fresh compile of some netlist.
//! * The source digest ([`structural_digest`]) ties the artifact to the
//!   netlist it was compiled from; warm-start callers compare it against
//!   the freshly parsed netlist before trusting the artifact.

use std::path::Path;
use std::sync::Arc;

use crate::compiled::{CompiledCircuit, RawParts};
use crate::fingerprint::FingerprintIndex;
use crate::hashing;
use crate::id::{DeviceId, NetId};
use crate::netlist::Netlist;

/// Magic bytes opening every `.sgc` artifact.
pub const MAGIC: [u8; 8] = *b"SUBGSGC1";

/// Current artifact format version.
pub const VERSION: u32 = 1;

const HEADER_LEN: usize = 32;

/// A structured artifact decoding failure. Loading never panics; every
/// malformed input maps to one of these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArtifactError {
    /// The input ended before the promised number of bytes.
    Truncated {
        /// Bytes required by the header or the current section.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The first eight bytes are not the `.sgc` magic.
    BadMagic,
    /// The artifact was written by an unknown format version.
    UnsupportedVersion(u32),
    /// Reserved flag bits were set.
    UnsupportedFlags(u32),
    /// The payload checksum does not match the header.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes actually present.
        found: u64,
    },
    /// The payload decoded but violates a structural invariant.
    Malformed(String),
    /// I/O failure while reading an artifact file.
    Io(String),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Truncated { needed, have } => {
                write!(f, "artifact truncated: need {needed} bytes, have {have}")
            }
            ArtifactError::BadMagic => write!(f, "not a .sgc artifact (bad magic)"),
            ArtifactError::UnsupportedVersion(v) => {
                write!(f, "unsupported artifact version {v} (this build reads {VERSION})")
            }
            ArtifactError::UnsupportedFlags(fl) => {
                write!(f, "unsupported artifact flags {fl:#x}")
            }
            ArtifactError::ChecksumMismatch { expected, found } => write!(
                f,
                "artifact checksum mismatch: header says {expected:#018x}, payload hashes to {found:#018x}"
            ),
            ArtifactError::Malformed(msg) => write!(f, "malformed artifact: {msg}"),
            ArtifactError::Io(msg) => write!(f, "artifact i/o error: {msg}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

/// A decoded `.sgc` artifact: the compiled snapshot, its fingerprint
/// index, and the digest of the netlist it was compiled from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Artifact {
    /// The revalidated compiled circuit.
    pub circuit: CompiledCircuit,
    /// The precomputed fingerprint index.
    pub index: FingerprintIndex,
    /// [`structural_digest`] of the source netlist at compile time.
    pub source_digest: u64,
}

impl Artifact {
    /// Compiles `netlist` and packages it with a freshly built
    /// fingerprint index and source digest.
    pub fn build(netlist: &Netlist) -> Self {
        let circuit = CompiledCircuit::compile(netlist);
        let index = FingerprintIndex::build(&circuit);
        Artifact {
            circuit,
            index,
            source_digest: structural_digest(netlist),
        }
    }

    /// Serializes to the `.sgc` byte format.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        self.write_payload(&mut payload);
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&checksum(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// The length of [`encode`](Artifact::encode)'s output, counted
    /// without building it.
    pub fn encoded_len(&self) -> usize {
        let mut len = ByteCount(0);
        self.write_payload(&mut len);
        HEADER_LEN + len.0
    }

    /// Writes the payload sections, in layout order.
    fn write_payload(&self, w: &mut impl Sink) {
        put_u64(w, self.source_digest);
        let p = self.circuit.raw_parts();
        put_u32_slice(w, p.dev_pin_start);
        put_u32_slice_iter(w, p.dev_pin_net.iter().map(|n| n.raw()));
        put_u64_slice(w, p.dev_pin_mult);
        put_u32_slice(w, p.net_pin_start);
        put_u32_slice_iter(w, p.net_pin_dev.iter().map(|d| d.raw()));
        put_u64_slice(w, p.net_pin_mult);
        put_u64_slice(w, p.dev_init);
        put_u64_slice(w, p.net_init);
        put_u32_slice(w, p.dev_type);
        put_u64(w, p.type_names.len() as u64);
        for name in p.type_names {
            put_str(w, name);
        }
        put_bool_slice(w, p.net_global);
        put_bool_slice(w, p.net_port);
        put_u64(w, p.globals.len() as u64);
        for (name, n) in p.globals {
            put_str(w, name);
            put_u32(w, n.raw());
        }
        put_u32_slice_iter(w, p.ports.iter().map(|n| n.raw()));
        put_u32(w, self.index.hop2_cap());
        put_u64_slice(w, self.index.fingerprints());
    }

    /// Decodes and fully revalidates a `.sgc` byte stream.
    ///
    /// # Errors
    ///
    /// Every malformed input — truncated, corrupted, version-skewed, or
    /// structurally inconsistent — returns the matching
    /// [`ArtifactError`]; decoding never panics.
    pub fn decode(bytes: &[u8]) -> Result<Self, ArtifactError> {
        if bytes.len() < HEADER_LEN {
            return Err(ArtifactError::Truncated {
                needed: HEADER_LEN,
                have: bytes.len(),
            });
        }
        if bytes[..8] != MAGIC {
            return Err(ArtifactError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(ArtifactError::UnsupportedVersion(version));
        }
        let flags = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        if flags != 0 {
            return Err(ArtifactError::UnsupportedFlags(flags));
        }
        let payload_len = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        let expected = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
        let Some(total) = (payload_len as usize).checked_add(HEADER_LEN) else {
            return Err(ArtifactError::Malformed("payload length overflows".into()));
        };
        if bytes.len() < total {
            return Err(ArtifactError::Truncated {
                needed: total,
                have: bytes.len(),
            });
        }
        if bytes.len() > total {
            return Err(ArtifactError::Malformed(format!(
                "{} trailing bytes after the payload",
                bytes.len() - total
            )));
        }
        let payload = &bytes[HEADER_LEN..];
        let found = checksum(payload);
        if found != expected {
            return Err(ArtifactError::ChecksumMismatch { expected, found });
        }

        let mut r = Reader {
            buf: payload,
            pos: 0,
        };
        let source_digest = r.u64()?;
        let dev_pin_start = r.u32_vec()?;
        let dev_pin_net = r.u32_vec()?.into_iter().map(NetId::new).collect();
        let dev_pin_mult = r.u64_vec()?;
        let net_pin_start = r.u32_vec()?;
        let net_pin_dev = r.u32_vec()?.into_iter().map(DeviceId::new).collect();
        let net_pin_mult = r.u64_vec()?;
        let dev_init = r.u64_vec()?;
        let net_init = r.u64_vec()?;
        let dev_type = r.u32_vec()?;
        let n_types = r.count()?;
        let mut type_names = Vec::with_capacity(n_types.min(1024));
        for _ in 0..n_types {
            type_names.push(r.string()?);
        }
        let net_global = r.bool_vec()?;
        let net_port = r.bool_vec()?;
        let n_globals = r.count()?;
        let mut globals = Vec::with_capacity(n_globals.min(1024));
        for _ in 0..n_globals {
            let name = r.string()?;
            globals.push((name, NetId::new(r.u32()?)));
        }
        let ports = r.u32_vec()?.into_iter().map(NetId::new).collect();
        let hop2_cap = r.u32()?;
        let dev_fp = r.u64_vec()?;
        if r.pos != r.buf.len() {
            return Err(ArtifactError::Malformed(format!(
                "{} unread bytes at the end of the payload",
                r.buf.len() - r.pos
            )));
        }

        let circuit = CompiledCircuit::from_raw_parts(RawParts {
            dev_pin_start,
            dev_pin_net,
            dev_pin_mult,
            net_pin_start,
            net_pin_dev,
            net_pin_mult,
            dev_init,
            net_init,
            dev_type,
            type_names,
            net_global,
            net_port,
            globals,
            ports,
        })
        .map_err(ArtifactError::Malformed)?;
        let index =
            FingerprintIndex::from_raw_parts(dev_fp, hop2_cap).map_err(ArtifactError::Malformed)?;
        if index.len() != circuit.device_count() {
            return Err(ArtifactError::Malformed(format!(
                "fingerprint index covers {} devices, circuit has {}",
                index.len(),
                circuit.device_count()
            )));
        }
        // The matcher prunes candidates by trusting these fingerprints,
        // so a stored index that disagrees with the (already
        // revalidated) circuit would silently drop true instances.
        // Recompute and compare — a checksum-valid but crafted payload
        // still cannot make pruning unsound.
        if index != FingerprintIndex::build(&circuit) {
            return Err(ArtifactError::Malformed(
                "fingerprint index does not match the circuit".into(),
            ));
        }
        Ok(Artifact {
            circuit,
            index,
            source_digest,
        })
    }

    /// Writes the encoded artifact to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), ArtifactError> {
        std::fs::write(path, self.encode())
            .map_err(|e| ArtifactError::Io(format!("{}: {e}", path.display())))
    }

    /// Reads and decodes an artifact from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Io`] on filesystem failure, or any
    /// decoding error from [`decode`](Self::decode).
    pub fn load(path: &Path) -> Result<Self, ArtifactError> {
        let bytes = std::fs::read(path)
            .map_err(|e| ArtifactError::Io(format!("{}: {e}", path.display())))?;
        Self::decode(&bytes)
    }

    /// Moves the circuit and index into [`Arc`]s for sharing.
    pub fn into_shared(self) -> (Arc<CompiledCircuit>, Arc<FingerprintIndex>, u64) {
        (
            Arc::new(self.circuit),
            Arc::new(self.index),
            self.source_digest,
        )
    }
}

/// Order-sensitive structural digest of a netlist: device types with
/// their terminal classes, every device's type and pin nets, net
/// global/port flags, global names, and the port list — everything
/// [`CompiledCircuit::compile`] reads. Two netlists with equal digests
/// compile to equal snapshots (up to hash collision, which the paper's
/// model already tolerates: a stale warm start can only waste work
/// downstream, never corrupt results, because the decoded snapshot is
/// itself revalidated).
pub fn structural_digest(netlist: &Netlist) -> u64 {
    let mut h: u64 = hashing::fnv1a("sgc-digest:v1");
    let mut put = |v: u64| h = hashing::mix(h ^ v.rotate_left(1));
    put(netlist.device_count() as u64);
    put(netlist.net_count() as u64);
    for t in netlist.device_types() {
        put(hashing::fnv1a(t.name()));
        put(t.terminal_count() as u64);
        for i in 0..t.terminal_count() {
            put(t.class_multiplier(i));
        }
    }
    for d in netlist.device_ids() {
        let dev = netlist.device(d);
        put(dev.type_id().index() as u64);
        for &n in dev.pins() {
            put(u64::from(n.raw()));
        }
    }
    for n in netlist.net_ids() {
        let net = netlist.net_ref(n);
        put(u64::from(net.is_global()) | u64::from(net.is_port()) << 1);
        if net.is_global() {
            put(hashing::fnv1a(net.name()));
        }
    }
    for &n in netlist.ports() {
        put(u64::from(n.raw()));
    }
    h
}

/// FNV-1a over raw bytes, finalized with the SplitMix64 mixer.
fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hashing::mix(h)
}

/// Where the payload writers put bytes: the encoder's buffer, or a
/// [`ByteCount`] that only measures.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Counts the bytes written to it.
struct ByteCount(usize);

impl Sink for ByteCount {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

fn put_u32(w: &mut impl Sink, v: u32) {
    w.put(&v.to_le_bytes());
}

fn put_u64(w: &mut impl Sink, v: u64) {
    w.put(&v.to_le_bytes());
}

fn put_str(w: &mut impl Sink, s: &str) {
    put_u32(w, s.len() as u32);
    w.put(s.as_bytes());
}

fn put_u32_slice(w: &mut impl Sink, s: &[u32]) {
    put_u32_slice_iter(w, s.iter().copied());
}

fn put_u32_slice_iter(w: &mut impl Sink, s: impl ExactSizeIterator<Item = u32>) {
    put_u64(w, s.len() as u64);
    for v in s {
        put_u32(w, v);
    }
}

fn put_u64_slice(w: &mut impl Sink, s: &[u64]) {
    put_u64(w, s.len() as u64);
    for &v in s {
        put_u64(w, v);
    }
}

fn put_bool_slice(w: &mut impl Sink, s: &[bool]) {
    put_u64(w, s.len() as u64);
    for &v in s {
        w.put(&[u8::from(v)]);
    }
}

/// Bounds-checked little-endian payload reader.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], ArtifactError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(ArtifactError::Malformed("section length overflows".into()))?;
        if end > self.buf.len() {
            return Err(ArtifactError::Truncated {
                needed: end,
                have: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// An element count, sanity-bounded by the remaining payload.
    fn count(&mut self) -> Result<usize, ArtifactError> {
        let n = self.u64()?;
        if n > self.buf.len() as u64 {
            return Err(ArtifactError::Malformed(format!(
                "section claims {n} elements in a {}-byte payload",
                self.buf.len()
            )));
        }
        Ok(n as usize)
    }

    fn string(&mut self) -> Result<String, ArtifactError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ArtifactError::Malformed("string is not UTF-8".into()))
    }

    fn u32_vec(&mut self) -> Result<Vec<u32>, ArtifactError> {
        let n = self.count()?;
        let bytes = self.take(
            n.checked_mul(4)
                .ok_or(ArtifactError::Malformed("section length overflows".into()))?,
        )?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn u64_vec(&mut self) -> Result<Vec<u64>, ArtifactError> {
        let n = self.count()?;
        let bytes = self.take(
            n.checked_mul(8)
                .ok_or(ArtifactError::Malformed("section length overflows".into()))?,
        )?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn bool_vec(&mut self) -> Result<Vec<bool>, ArtifactError> {
        let n = self.count()?;
        let bytes = self.take(n)?;
        let mut out = Vec::with_capacity(n);
        for &b in bytes {
            match b {
                0 => out.push(false),
                1 => out.push(true),
                _ => {
                    return Err(ArtifactError::Malformed(format!(
                        "boolean byte has value {b}"
                    )))
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::MosTypes;

    fn inverter() -> Netlist {
        let mut nl = Netlist::new("inv");
        let MosTypes { nmos, pmos } = nl.add_mos_types();
        let (a, y, vdd, gnd) = (nl.net("a"), nl.net("y"), nl.net("vdd"), nl.net("gnd"));
        nl.mark_global(vdd);
        nl.mark_global(gnd);
        nl.mark_port(a);
        nl.mark_port(y);
        nl.add_device("mp", pmos, &[a, vdd, y]).unwrap();
        nl.add_device("mn", nmos, &[a, gnd, y]).unwrap();
        nl
    }

    #[test]
    fn encode_decode_round_trip() {
        let nl = inverter();
        let art = Artifact::build(&nl);
        let bytes = art.encode();
        let back = Artifact::decode(&bytes).unwrap();
        assert_eq!(art, back);
        assert_eq!(back.source_digest, structural_digest(&nl));
    }

    #[test]
    fn digest_tracks_structure_not_net_names() {
        let a = inverter();
        let mut b = inverter();
        assert_eq!(structural_digest(&a), structural_digest(&b));
        let w = b.net("extra");
        let _ = w;
        assert_ne!(structural_digest(&a), structural_digest(&b));
    }

    #[test]
    fn file_round_trip_and_io_error() {
        let nl = inverter();
        let art = Artifact::build(&nl);
        let path = std::env::temp_dir().join(format!("sgc_unit_{}.sgc", std::process::id()));
        art.save(&path).unwrap();
        assert_eq!(Artifact::load(&path).unwrap(), art);
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(Artifact::load(&path), Err(ArtifactError::Io(_))));
    }

    #[test]
    fn header_failures_are_structured() {
        let bytes = Artifact::build(&inverter()).encode();
        assert!(matches!(
            Artifact::decode(&bytes[..10]),
            Err(ArtifactError::Truncated { .. })
        ));
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert_eq!(Artifact::decode(&bad), Err(ArtifactError::BadMagic));
        let mut bumped = bytes.clone();
        bumped[8] = 2;
        assert_eq!(
            Artifact::decode(&bumped),
            Err(ArtifactError::UnsupportedVersion(2))
        );
        let mut flagged = bytes.clone();
        flagged[12] = 1;
        assert_eq!(
            Artifact::decode(&flagged),
            Err(ArtifactError::UnsupportedFlags(1))
        );
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(matches!(
            Artifact::decode(&flipped),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
        let mut trailing = bytes;
        trailing.push(0);
        assert!(matches!(
            Artifact::decode(&trailing),
            Err(ArtifactError::Malformed(_))
        ));
    }
}
