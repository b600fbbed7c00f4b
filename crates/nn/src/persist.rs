//! Versioned, checksummed binary serialization for the durable index artifacts.
//!
//! The paper's "BlazeIt (indexed)" scenario assumes specialized-NN scores outlive
//! the process that computed them. This module defines the on-disk byte format for
//! the two artifacts the index store persists:
//!
//! * a [`ScoreMatrix`] — the per-video score index built by
//!   [`SpecializedNN::score_video`](crate::specialized::SpecializedNN::score_video);
//! * a trained [`SpecializedNN`] — its full configuration, standardization
//!   statistics, and layer weights (enough to reconstruct inference exactly;
//!   optimizer state is deliberately not persisted).
//!
//! Floating-point values are stored as raw IEEE-754 bits, so a decoded artifact is
//! **bit-identical** to the encoded one — loading an index from disk produces
//! exactly the scores a fresh computation would.
//!
//! ## Envelope layout
//!
//! Every artifact is wrapped in a fixed envelope (all integers little-endian):
//!
//! | offset | bytes | contents |
//! |---|---|---|
//! | 0 | 4 | magic `b"BZIX"` |
//! | 4 | 1 | artifact kind ([`KIND_SCORE_INDEX`] or [`KIND_SPECIALIZED_NN`]) |
//! | 5 | 4 | format version ([`FORMAT_VERSION`], `u32`) |
//! | 9 | 8 | payload length (`u64`) |
//! | 17 | n | payload |
//! | 17+n | 8 | FNV-1a 64 checksum of the payload (`u64`) |
//!
//! Decoding checks magic, kind, and version **before** the checksum (a version bump
//! may move the checksum), then length and checksum, and finally parses the
//! payload; every failure is a typed [`PersistError`], never a panic. The payload
//! begins with the caller's cache-identity key string, which decode verifies
//! against the expected key — a hashed filename that collides (or a file renamed by
//! hand) is rejected as [`PersistError::KeyMismatch`] instead of silently serving
//! another head set's scores.

use crate::features::Standardizer;
use crate::layers::Dense;
use crate::network::Network;
use crate::score::ScoreMatrix;
use crate::specialized::{SpecializedConfig, SpecializedHead, SpecializedNN};
use crate::tensor::Matrix;
use crate::train::TrainConfig;
use blazeit_detect::{CostProfile, SimClock};
use blazeit_videostore::ObjectClass;
use std::sync::Arc;

/// The current on-disk format version. Bump on any layout change, and on any
/// change to the arithmetic that produced what is stored; older files are
/// rejected with [`PersistError::VersionMismatch`] and recomputed.
///
/// Version 2 has version 1's layout. It marks the fused multiply-add products
/// of the numerics contract (see [`tensor`](crate::tensor)): a version-1
/// network loaded into this build would be scored with fused arithmetic under
/// a score index, and a `score_key`, written from unfused scores.
pub const FORMAT_VERSION: u32 = 2;

/// Magic bytes opening every persisted artifact.
pub const MAGIC: [u8; 4] = *b"BZIX";

/// Artifact kind byte for a persisted [`ScoreMatrix`].
pub const KIND_SCORE_INDEX: u8 = 1;

/// Artifact kind byte for a persisted [`SpecializedNN`].
pub const KIND_SPECIALIZED_NN: u8 = 2;

/// Artifact kind byte for a persisted labeled-set annotation day (the payload
/// codec lives in `blazeit-core`, which owns the labeled-set types; the
/// envelope, checksum, and key verification are shared through this module's
/// [`Writer`] / [`Reader`] / [`seal`] / [`open`] surface).
pub const KIND_LABELED_SET: u8 = 3;

const HEADER_LEN: usize = 4 + 1 + 4 + 8;

/// A typed decoding failure. The index store surfaces these (wrapped with the file
/// path) and falls back to recomputing the artifact; nothing in the load path
/// panics on hostile bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The bytes are not a well-formed artifact: bad magic, wrong kind, truncated,
    /// trailing garbage, checksum mismatch, or an unparseable payload.
    Corrupt(String),
    /// The artifact was written by a different format version.
    VersionMismatch {
        /// The version recorded in the file.
        found: u32,
        /// The version this build reads and writes ([`FORMAT_VERSION`]).
        expected: u32,
    },
    /// The artifact is valid but belongs to a different cache identity.
    KeyMismatch {
        /// The key the caller asked for.
        expected: String,
        /// The key recorded in the file.
        found: String,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Corrupt(msg) => write!(f, "corrupt artifact: {msg}"),
            PersistError::VersionMismatch { found, expected } => {
                write!(f, "format version {found} (this build reads version {expected})")
            }
            PersistError::KeyMismatch { expected, found } => {
                write!(f, "artifact key '{found}' does not match requested key '{expected}'")
            }
        }
    }
}

impl std::error::Error for PersistError {}

type PResult<T> = std::result::Result<T, PersistError>;

/// FNV-1a 64-bit hash, used both as the payload checksum and (by the index store)
/// to derive stable filenames from cache keys.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------------------
// Byte-level writer / reader.
// ---------------------------------------------------------------------------------

/// Appends little-endian primitives to a payload buffer (the write half of the
/// artifact codec). Public so sibling crates can persist their own artifact
/// kinds (e.g. labeled-set annotations) through the same envelope.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a `usize` as a little-endian `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    /// Appends an `f32` as its raw IEEE-754 bits (round-trips bit-identically).
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }
    /// Appends an `f64` as its raw IEEE-754 bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
    /// Appends a length-prefixed `f32` slice.
    pub fn f32s(&mut self, values: &[f32]) {
        self.usize(values.len());
        for &v in values {
            self.f32(v);
        }
    }
    /// Appends a length-prefixed `usize` slice.
    pub fn usizes(&mut self, values: &[usize]) {
        self.usize(values.len());
        for &v in values {
            self.usize(v);
        }
    }
    /// Appends a length-prefixed `u64` slice.
    pub fn u64s(&mut self, values: &[u64]) {
        self.usize(values.len());
        for &v in values {
            self.u64(v);
        }
    }
    /// The accumulated payload bytes (pass to [`seal`]).
    pub fn payload(&self) -> &[u8] {
        &self.buf
    }
}

/// Reads little-endian primitives off a payload buffer, rejecting truncated or
/// implausible data with typed [`PersistError`]s (the read half of the codec).
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a payload (as returned by [`open`]) for reading.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> PResult<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len()).ok_or_else(|| {
            PersistError::Corrupt(format!(
                "truncated payload: {what} needs {n} bytes at offset {}, {} available",
                self.pos,
                self.buf.len()
            ))
        })?;
        #[expect(
            clippy::indexing_slicing,
            reason = "end was checked_add-validated against buf.len() directly above"
        )]
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads exactly `N` bytes as a fixed array. `take` enforces the bound;
    /// a conversion failure is reported as corruption, not a panic.
    fn take_array<const N: usize>(&mut self, what: &str) -> PResult<[u8; N]> {
        self.take(N, what)?
            .try_into()
            .map_err(|_| PersistError::Corrupt(format!("{what}: short read of {N} bytes")))
    }

    /// Reads one byte (`what` names the field in error messages).
    pub fn u8(&mut self, what: &str) -> PResult<u8> {
        let [byte] = self.take_array(what)?;
        Ok(byte)
    }
    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> PResult<u32> {
        Ok(u32::from_le_bytes(self.take_array(what)?))
    }
    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> PResult<u64> {
        Ok(u64::from_le_bytes(self.take_array(what)?))
    }
    /// Reads a `usize`, rejecting lengths that exceed the remaining buffer.
    pub fn usize(&mut self, what: &str) -> PResult<usize> {
        let v = self.u64(what)?;
        // A length larger than the remaining buffer is corruption, not allocation
        // advice — reject it before any `Vec::with_capacity` can act on it.
        if v > self.buf.len() as u64 {
            return Err(PersistError::Corrupt(format!(
                "implausible length {v} for {what} in a {}-byte payload",
                self.buf.len()
            )));
        }
        Ok(v as usize)
    }
    /// Reads an `f32` from its raw bits.
    pub fn f32(&mut self, what: &str) -> PResult<f32> {
        Ok(f32::from_bits(self.u32(what)?))
    }
    /// Reads an `f64` from its raw bits.
    pub fn f64(&mut self, what: &str) -> PResult<f64> {
        Ok(f64::from_bits(self.u64(what)?))
    }
    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &str) -> PResult<String> {
        let len = self.usize(what)?;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PersistError::Corrupt(format!("{what} is not valid UTF-8")))
    }
    /// Reads a length-prefixed `f32` slice.
    #[expect(
        clippy::expect_used,
        reason = "chunks_exact(4) yields exactly-4-byte slices by contract; the conversion cannot \
                  fail."
    )]
    pub fn f32s(&mut self, what: &str) -> PResult<Vec<f32>> {
        let len = self.usize(what)?;
        // 4 bytes per value; `take` enforces the exact bound.
        let raw = self.take(len * 4, what)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().expect("4 bytes"))))
            .collect())
    }
    /// Reads a length-prefixed `usize` slice.
    pub fn usizes(&mut self, what: &str) -> PResult<Vec<usize>> {
        let len = self.usize(what)?;
        (0..len).map(|_| self.usize(what)).collect()
    }
    /// Reads a length-prefixed `u64` slice.
    #[expect(
        clippy::expect_used,
        reason = "chunks_exact(8) yields exactly-8-byte slices by contract; the conversion cannot \
                  fail."
    )]
    pub fn u64s(&mut self, what: &str) -> PResult<Vec<u64>> {
        let len = self.usize(what)?;
        let raw = self.take(len * 8, what)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }
    /// Verifies the whole payload was consumed (trailing bytes are corruption).
    pub fn finish(&self) -> PResult<()> {
        if self.pos != self.buf.len() {
            return Err(PersistError::Corrupt(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------------
// Envelope.
// ---------------------------------------------------------------------------------

/// Wraps a payload in the versioned, checksummed envelope for artifact `kind`.
pub fn seal(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + 8);
    out.extend_from_slice(&MAGIC);
    out.push(kind);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out
}

/// Computes the content fingerprint of a trained network: the FNV-1a hash of its
/// full serialized form (configuration, standardizer statistics, every layer's
/// weights). Two networks fingerprint equal iff they are bit-identical — this is
/// what lets score-index cache keys pin *which weights* produced the scores,
/// rather than merely which architecture (two networks with identical configs
/// but different training data must never share a score index).
///
/// Called once per network at construction; readers should use the cached
/// [`SpecializedNN::weights_fingerprint`] instead of re-serializing.
pub fn specialized_nn_fingerprint(nn: &SpecializedNN) -> u64 {
    fnv1a(&encode_specialized_nn(nn, ""))
}

/// Unwraps an envelope of artifact `kind`, verifying magic, kind, version,
/// length, and checksum; returns the payload slice.
pub fn open(kind: u8, bytes: &[u8]) -> PResult<&[u8]> {
    if bytes.len() < HEADER_LEN + 8 {
        return Err(PersistError::Corrupt(format!(
            "file of {} bytes is shorter than the {}-byte envelope",
            bytes.len(),
            HEADER_LEN + 8
        )));
    }
    fn field<const N: usize>(bytes: &[u8], at: usize, what: &str) -> PResult<[u8; N]> {
        bytes
            .get(at..at + N)
            .and_then(|s| s.try_into().ok())
            .ok_or_else(|| PersistError::Corrupt(format!("truncated envelope header: {what}")))
    }
    if field::<4>(bytes, 0, "magic")? != MAGIC {
        return Err(PersistError::Corrupt("bad magic bytes".into()));
    }
    let [found_kind] = field::<1>(bytes, 4, "kind")?;
    if found_kind != kind {
        return Err(PersistError::Corrupt(format!(
            "artifact kind {found_kind} where kind {kind} was expected"
        )));
    }
    let version = u32::from_le_bytes(field(bytes, 5, "format version")?);
    if version != FORMAT_VERSION {
        return Err(PersistError::VersionMismatch { found: version, expected: FORMAT_VERSION });
    }
    let payload_len = u64::from_le_bytes(field(bytes, 9, "payload length")?);
    // checked_add: a hostile length near u64::MAX must read as Corrupt, not
    // overflow (which would panic under debug overflow checks).
    let expected_total = payload_len.checked_add((HEADER_LEN + 8) as u64);
    if expected_total != Some(bytes.len() as u64) {
        return Err(PersistError::Corrupt(format!(
            "file of {} bytes for a declared payload of {payload_len}",
            bytes.len()
        )));
    }
    let payload = bytes
        .get(HEADER_LEN..HEADER_LEN + payload_len as usize)
        .ok_or_else(|| PersistError::Corrupt("truncated payload".into()))?;
    let stored = u64::from_le_bytes(field(bytes, HEADER_LEN + payload_len as usize, "checksum")?);
    let computed = fnv1a(payload);
    if stored != computed {
        return Err(PersistError::Corrupt(format!(
            "checksum mismatch: stored {stored:#x}, computed {computed:#x}"
        )));
    }
    Ok(payload)
}

/// Reads the leading cache-identity key of a payload and verifies it matches
/// `expected` (every artifact stores its full key; see the module docs).
pub fn check_key(reader: &mut Reader<'_>, expected: &str) -> PResult<()> {
    let found = reader.str("cache key")?;
    if found != expected {
        return Err(PersistError::KeyMismatch { expected: expected.to_string(), found });
    }
    Ok(())
}

// ---------------------------------------------------------------------------------
// ScoreMatrix.
// ---------------------------------------------------------------------------------

/// Serializes a score index under its cache-identity `key`.
pub fn encode_score_matrix(scores: &ScoreMatrix, key: &str) -> Vec<u8> {
    let mut w = Writer::default();
    w.str(key);
    w.usize(scores.num_frames());
    w.usizes(scores.head_sizes());
    // The flat `f32s` layout: one length prefix, then every row in frame order.
    w.usize(scores.num_frames() * scores.stride());
    for row in scores.rows(0..scores.num_frames()) {
        for &p in row.probs() {
            w.f32(p);
        }
    }
    seal(KIND_SCORE_INDEX, &w.buf)
}

/// Decodes a score index, verifying the envelope and that it was stored under
/// `expected_key`. The result is bit-identical to the encoded matrix.
pub fn decode_score_matrix(bytes: &[u8], expected_key: &str) -> PResult<ScoreMatrix> {
    let payload = open(KIND_SCORE_INDEX, bytes)?;
    let mut r = Reader::new(payload);
    check_key(&mut r, expected_key)?;
    let frames = r.usize("frame count")?;
    let heads = r.usizes("head sizes")?;
    let probs = r.f32s("probabilities")?;
    r.finish()?;
    ScoreMatrix::from_raw(frames, heads, probs)
        .map_err(|e| PersistError::Corrupt(format!("inconsistent score matrix: {e}")))
}

// ---------------------------------------------------------------------------------
// SpecializedNN.
// ---------------------------------------------------------------------------------

/// Serializes a trained specialized network (configuration, standardizer, layer
/// weights) under its cache-identity `key`.
pub fn encode_specialized_nn(nn: &SpecializedNN, key: &str) -> Vec<u8> {
    let mut w = Writer::default();
    w.str(key);

    let config = nn.config();
    w.usize(config.heads.len());
    for head in &config.heads {
        w.u8(head.class.index() as u8);
        w.usize(head.max_count);
    }
    w.usize(config.features.grid_side);
    w.u8(config.features.include_stats as u8);
    w.u8(config.features.include_deviation as u8);
    w.usizes(&config.hidden);
    w.usize(config.train.epochs);
    w.usize(config.train.batch_size);
    w.f32(config.train.sgd.learning_rate);
    w.f32(config.train.sgd.momentum);
    w.f32(config.train.sgd.weight_decay);
    w.u64(config.train.seed);
    w.u64(config.seed);
    w.f64(config.cost.specialized_fps);
    w.f64(config.cost.training_fps);
    w.f64(config.cost.filter_fps);
    w.f64(config.cost.decode_fps);

    w.f32s(nn.standardizer().means());
    w.f32s(nn.standardizer().inv_stds());

    let layers = nn.network().layers();
    w.usize(layers.len());
    for layer in layers {
        w.u8(layer.relu as u8);
        w.usize(layer.weights.rows());
        w.usize(layer.weights.cols());
        w.f32s(layer.weights.data());
        w.f32s(layer.bias.data());
    }
    seal(KIND_SPECIALIZED_NN, &w.buf)
}

/// Decodes a trained specialized network, verifying the envelope and key, and
/// binding the result to `clock` (warm loads charge nothing; the clock is only
/// used by subsequent inference). Inference with the decoded network is
/// bit-identical to the encoded one.
pub fn decode_specialized_nn(
    bytes: &[u8],
    expected_key: &str,
    clock: Arc<SimClock>,
) -> PResult<SpecializedNN> {
    let payload = open(KIND_SPECIALIZED_NN, bytes)?;
    let mut r = Reader::new(payload);
    check_key(&mut r, expected_key)?;

    let num_heads = r.usize("head count")?;
    let mut heads = Vec::with_capacity(num_heads);
    for _ in 0..num_heads {
        let class_index = r.u8("head class")?;
        let class = ObjectClass::ALL.get(class_index as usize).copied().ok_or_else(|| {
            PersistError::Corrupt(format!("unknown object class index {class_index}"))
        })?;
        let max_count = r.usize("head max count")?;
        heads.push(SpecializedHead { class, max_count });
    }
    let mut config = SpecializedConfig::for_heads(heads);
    config.features.grid_side = r.usize("grid side")?;
    config.features.include_stats = r.u8("include_stats")? != 0;
    config.features.include_deviation = r.u8("include_deviation")? != 0;
    config.hidden = r.usizes("hidden widths")?;
    config.train = TrainConfig {
        epochs: r.usize("epochs")?,
        batch_size: r.usize("batch size")?,
        sgd: crate::optimizer::SgdConfig {
            learning_rate: r.f32("learning rate")?,
            momentum: r.f32("momentum")?,
            weight_decay: r.f32("weight decay")?,
        },
        seed: r.u64("train seed")?,
    };
    config.seed = r.u64("init seed")?;
    config.cost = CostProfile {
        specialized_fps: r.f64("specialized fps")?,
        training_fps: r.f64("training fps")?,
        filter_fps: r.f64("filter fps")?,
        decode_fps: r.f64("decode fps")?,
    };

    let means = r.f32s("standardizer means")?;
    let inv_stds = r.f32s("standardizer inverse stds")?;
    let standardizer = Standardizer::from_parts(means, inv_stds)
        .map_err(|e| PersistError::Corrupt(format!("inconsistent standardizer: {e}")))?;

    let num_layers = r.usize("layer count")?;
    let mut layers = Vec::with_capacity(num_layers);
    for i in 0..num_layers {
        let relu = r.u8("layer relu flag")? != 0;
        let rows = r.usize("layer rows")?;
        let cols = r.usize("layer cols")?;
        let weights_data = r.f32s("layer weights")?;
        let weights = Matrix::from_vec(rows, cols, weights_data)
            .map_err(|e| PersistError::Corrupt(format!("layer {i} weights: {e}")))?;
        let bias_data = r.f32s("layer bias")?;
        let bias = Matrix::from_vec(1, bias_data.len(), bias_data)
            .map_err(|e| PersistError::Corrupt(format!("layer {i} bias: {e}")))?;
        let layer = Dense::from_parts(weights, bias, relu)
            .map_err(|e| PersistError::Corrupt(format!("layer {i}: {e}")))?;
        layers.push(layer);
    }
    r.finish()?;

    let network = Network::from_parts(config.network_config(), layers)
        .map_err(|e| PersistError::Corrupt(format!("inconsistent network: {e}")))?;
    SpecializedNN::from_parts(config, standardizer, network, clock)
        .map_err(|e| PersistError::Corrupt(format!("inconsistent specialized network: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazeit_detect::CountVector;
    use blazeit_videostore::{DatasetPreset, FrameIndex, Video, DAY_TRAIN};

    fn trained_nn() -> (SpecializedNN, Video) {
        let video = DatasetPreset::Taipei.generate_with_frames(DAY_TRAIN, 600).unwrap();
        let frames: Vec<FrameIndex> = (0..600).step_by(4).collect();
        let labels: Vec<CountVector> = frames
            .iter()
            .map(|&f| CountVector::from_ground_truth(&video.scene().visible_at(f)))
            .collect();
        let heads = vec![
            SpecializedHead { class: ObjectClass::Car, max_count: 3 },
            SpecializedHead { class: ObjectClass::Bus, max_count: 1 },
        ];
        let mut config = SpecializedConfig::for_heads(heads);
        config.train.epochs = 2;
        let (nn, _) =
            SpecializedNN::train(config, &video, &frames, &labels, SimClock::new()).unwrap();
        (nn, video)
    }

    #[test]
    fn score_matrix_round_trip_is_bit_identical() {
        let (nn, video) = trained_nn();
        let scores = nn.score_batch(&video, &(0..100).collect::<Vec<_>>()).unwrap();
        let bytes = encode_score_matrix(&scores, "some-key");
        let decoded = decode_score_matrix(&bytes, "some-key").unwrap();
        assert_eq!(decoded, scores);
        // Exact bit equality of every probability, not just PartialEq.
        for (a, b) in decoded.rows(0..100).zip(scores.rows(0..100)) {
            let bits = |row: crate::score::ScoreRow<'_>| {
                row.probs().iter().map(|p| p.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(bits(a), bits(b));
        }
    }

    #[test]
    fn specialized_nn_round_trip_scores_identically() {
        let (nn, video) = trained_nn();
        let bytes = encode_specialized_nn(&nn, "nn-key");
        let decoded = decode_specialized_nn(&bytes, "nn-key", SimClock::new()).unwrap();
        assert_eq!(decoded.config(), nn.config());
        let frames: Vec<FrameIndex> = (0..80).collect();
        let original = nn.score_batch(&video, &frames).unwrap();
        let restored = decoded.score_batch(&video, &frames).unwrap();
        assert_eq!(original, restored);
    }

    #[test]
    fn wrong_key_is_a_key_mismatch() {
        let (nn, video) = trained_nn();
        let scores = nn.score_batch(&video, &[0, 1, 2]).unwrap();
        let bytes = encode_score_matrix(&scores, "key-a");
        match decode_score_matrix(&bytes, "key-b") {
            Err(PersistError::KeyMismatch { expected, found }) => {
                assert_eq!(expected, "key-b");
                assert_eq!(found, "key-a");
            }
            other => panic!("expected KeyMismatch, got {other:?}"),
        }
    }

    #[test]
    fn tampered_bytes_are_rejected_not_panicked_on() {
        let (nn, video) = trained_nn();
        let scores = nn.score_batch(&video, &[0, 1, 2, 3]).unwrap();
        let good = encode_score_matrix(&scores, "k");

        // Truncation (any prefix) is Corrupt.
        for cut in [0, 3, HEADER_LEN, good.len() / 2, good.len() - 1] {
            match decode_score_matrix(&good[..cut], "k") {
                Err(PersistError::Corrupt(_)) => {}
                other => panic!("truncated at {cut}: expected Corrupt, got {other:?}"),
            }
        }

        // A flipped payload byte fails the checksum.
        let mut flipped = good.clone();
        flipped[HEADER_LEN + 9] ^= 0xFF;
        assert!(matches!(decode_score_matrix(&flipped, "k"), Err(PersistError::Corrupt(_))));

        // A declared payload length near u64::MAX must read as Corrupt, not
        // overflow (debug builds panic on unchecked arithmetic overflow).
        let mut huge = good.clone();
        huge[9..17].copy_from_slice(&(u64::MAX - 10).to_le_bytes());
        assert!(matches!(decode_score_matrix(&huge, "k"), Err(PersistError::Corrupt(_))));

        // A bumped version byte (offset 5) is VersionMismatch, checked before the
        // checksum so future formats report honestly. So is a version-1 file
        // with an intact layout: its scores and weights came from unfused
        // products, and must be recomputed rather than mixed with fused ones.
        for version in [FORMAT_VERSION + 1, 1] {
            let mut other = good.clone();
            other[5..9].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                decode_score_matrix(&other, "k"),
                Err(PersistError::VersionMismatch { found: version, expected: FORMAT_VERSION })
            );
        }

        // Wrong artifact kind.
        match decode_specialized_nn(&good, "k", SimClock::new()) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("kind"), "{msg}"),
            other => panic!("expected Corrupt(kind), got {other:?}"),
        }

        // The untouched original still decodes.
        assert_eq!(decode_score_matrix(&good, "k").unwrap(), scores);
    }

    #[test]
    fn implausible_lengths_do_not_allocate() {
        // A payload declaring a multi-terabyte vector must be rejected by the
        // length sanity check, not attempted.
        let mut w = Writer::default();
        w.str("k");
        w.u64(u64::MAX / 8); // frame count
        let bytes = seal(KIND_SCORE_INDEX, &w.buf);
        assert!(matches!(decode_score_matrix(&bytes, "k"), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn crafted_dimensions_whose_product_explodes_are_rejected() {
        // Each declared field individually fits the payload-length sanity check
        // (the payload is padded large enough), but frames x stride = 10^12:
        // reconstruction must reject the inconsistency *before* zero-filling a
        // terabyte buffer.
        let mut w = Writer::default();
        w.str("k");
        w.usize(1_000_000); // frames
        w.usize(1); // one head...
        w.usize(1_000_000); // ...of a million classes
        w.f32s(&vec![0.0f32; 300_000]); // ~1.2 MB of actual probabilities
        let bytes = seal(KIND_SCORE_INDEX, &w.buf);
        match decode_score_matrix(&bytes, "k") {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("score buffer"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
