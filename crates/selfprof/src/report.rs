//! The serializable self-profile report.
//!
//! A [`SelfProfReport`] is the drained, merged view of every stage's
//! counters plus the process peak RSS. It has one binary encoding — magic
//! `HPSP`, a version word, and a trailing FNV-1a-64 seal, mirroring the
//! serve snapshot format (`HPSS`) — and two renderings over the same data:
//! JSON for the `/selfprof` HTTP endpoint and a fixed-width table for
//! terminals and test failure messages.

use std::fmt::Write as _;

use hotpath_ir::fasthash::fnv1a64;
use hotpath_telemetry::Histogram;

/// Wall-time bucket upper bounds in nanoseconds: powers of two from 2^8
/// (256ns, below which `Instant` jitter dominates) to 2^36 (~69s). The
/// telemetry `POW2_BOUNDS` top out at 2^20 ≈ 1ms — too low for snapshot
/// and publish stages — so the report carries its own layout.
pub const NS_BOUNDS: [u64; 29] = {
    let mut bounds = [0u64; 29];
    let mut i = 0;
    while i < 29 {
        bounds[i] = 1u64 << (i + 8);
        i += 1;
    }
    bounds
};

/// Bucket count per stage: one per bound plus the overflow bucket.
pub const BUCKET_COUNT: usize = NS_BOUNDS.len() + 1;

/// Encoding version this build writes and the only one it reads.
pub const REPORT_VERSION: u32 = 1;

const MAGIC: &[u8; 4] = b"HPSP";

/// Why a report blob failed to decode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReportError {
    /// Shorter than the fixed header plus seal.
    TooShort,
    /// Leading bytes are not `HPSP`.
    BadMagic,
    /// Version word is not [`REPORT_VERSION`].
    UnsupportedVersion(u32),
    /// The trailing FNV seal does not match the content.
    ChecksumMismatch,
    /// Structurally invalid content (field named for diagnostics).
    Malformed(&'static str),
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::TooShort => write!(f, "report blob too short"),
            ReportError::BadMagic => write!(f, "bad report magic"),
            ReportError::UnsupportedVersion(v) => {
                write!(f, "unsupported report version {v}")
            }
            ReportError::ChecksumMismatch => write!(f, "report checksum mismatch"),
            ReportError::Malformed(field) => write!(f, "malformed report field: {field}"),
        }
    }
}

impl std::error::Error for ReportError {}

/// One stage's merged totals.
#[derive(Clone, PartialEq, Debug)]
pub struct StageReport {
    /// Stable stage name (`frame_decode`, `vm_slice`, …).
    pub name: String,
    /// Wall-time distribution over [`NS_BOUNDS`]; `total()` is the visit
    /// count, `sum()`/`max()` are nanoseconds.
    pub wall: Histogram,
    /// Bytes requested from the allocator while this stage was innermost.
    pub alloc_bytes: u64,
    /// Allocation calls while this stage was innermost.
    pub alloc_count: u64,
    /// Largest single allocation attributed to this stage.
    pub bytes_max_single: u64,
    /// Most bytes allocated over one visit (nested stages included).
    pub bytes_max_visit: u64,
    /// Most allocations over one visit (nested stages included).
    pub count_max_visit: u64,
}

impl StageReport {
    /// Completed visits.
    pub fn visits(&self) -> u64 {
        self.wall.total()
    }
}

/// The full self-profile: every active stage plus process peak RSS.
#[derive(Clone, PartialEq, Debug)]
pub struct SelfProfReport {
    /// Encoding version (always [`REPORT_VERSION`] for in-process
    /// reports).
    pub version: u32,
    /// Process peak RSS in bytes at snapshot time, `0` where unavailable.
    pub peak_rss_bytes: u64,
    /// Stages that saw at least one visit or allocation, in [`crate::Stage`]
    /// order.
    pub stages: Vec<StageReport>,
}

impl SelfProfReport {
    /// A report with no stage data (what a disabled build produces).
    pub fn empty() -> Self {
        SelfProfReport {
            version: REPORT_VERSION,
            peak_rss_bytes: crate::rss::peak_rss_bytes(),
            stages: Vec::new(),
        }
    }

    /// True when no stage recorded anything.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// The stage entry with this name, if it was active.
    pub fn stage(&self, name: &str) -> Option<&StageReport> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Serializes to the sealed `HPSP` binary form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.stages.len() * (16 + BUCKET_COUNT * 8));
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, REPORT_VERSION);
        put_u64(&mut out, self.peak_rss_bytes);
        put_u32(&mut out, self.stages.len() as u32);
        for stage in &self.stages {
            put_str(&mut out, &stage.name);
            put_u64(&mut out, stage.wall.sum());
            put_u64(&mut out, stage.wall.max());
            put_u32(&mut out, BUCKET_COUNT as u32);
            for (_, count) in stage.wall.bucket_counts() {
                put_u64(&mut out, count);
            }
            put_u64(&mut out, stage.alloc_bytes);
            put_u64(&mut out, stage.alloc_count);
            put_u64(&mut out, stage.bytes_max_single);
            put_u64(&mut out, stage.bytes_max_visit);
            put_u64(&mut out, stage.count_max_visit);
        }
        let seal = fnv1a64(&out);
        put_u64(&mut out, seal);
        out
    }

    /// Decodes and verifies a sealed `HPSP` blob.
    ///
    /// # Errors
    ///
    /// Returns a [`ReportError`] naming what is wrong with the blob.
    pub fn decode(bytes: &[u8]) -> Result<Self, ReportError> {
        // Header (magic + version + rss + count) and trailing seal.
        if bytes.len() < 4 + 4 + 8 + 4 + 8 {
            return Err(ReportError::TooShort);
        }
        if &bytes[..4] != MAGIC {
            return Err(ReportError::BadMagic);
        }
        let (content, seal_bytes) = bytes.split_at(bytes.len() - 8);
        let seal = u64::from_le_bytes(seal_bytes.try_into().expect("8 bytes"));
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != REPORT_VERSION {
            // Version is checked before the seal so a reader can give a
            // precise error for a future format it cannot verify.
            return Err(ReportError::UnsupportedVersion(version));
        }
        if fnv1a64(content) != seal {
            return Err(ReportError::ChecksumMismatch);
        }
        let mut r = Reader {
            bytes: &content[8..],
        };
        let peak_rss_bytes = r.u64("peak_rss")?;
        let stage_count = r.u32("stage_count")? as usize;
        if stage_count > crate::STAGE_COUNT {
            return Err(ReportError::Malformed("stage_count"));
        }
        let mut stages = Vec::with_capacity(stage_count);
        for _ in 0..stage_count {
            let name = r.str("stage_name")?.to_string();
            let wall_sum = r.u64("wall_ns_sum")?;
            let wall_max = r.u64("wall_ns_max")?;
            let buckets = r.u32("bucket_count")? as usize;
            if buckets != BUCKET_COUNT {
                return Err(ReportError::Malformed("bucket_count"));
            }
            let mut counts = Vec::with_capacity(BUCKET_COUNT);
            for _ in 0..BUCKET_COUNT {
                counts.push(r.u64("bucket")?);
            }
            let wall = Histogram::from_parts(&NS_BOUNDS, counts, wall_sum, wall_max)
                .map_err(|_| ReportError::Malformed("wall histogram"))?;
            stages.push(StageReport {
                name,
                wall,
                alloc_bytes: r.u64("alloc_bytes")?,
                alloc_count: r.u64("alloc_count")?,
                bytes_max_single: r.u64("bytes_max_single")?,
                bytes_max_visit: r.u64("bytes_max_visit")?,
                count_max_visit: r.u64("count_max_visit")?,
            });
        }
        if !r.bytes.is_empty() {
            return Err(ReportError::Malformed("trailing bytes"));
        }
        Ok(SelfProfReport {
            version,
            peak_rss_bytes,
            stages,
        })
    }

    /// Renders the report as a JSON document (the `/selfprof` body).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"version\": {},\n  \"enabled\": {},\n  \"peak_rss_bytes\": {},\n  \"stages\": [",
            self.version,
            crate::enabled(),
            self.peak_rss_bytes
        );
        let mut first = true;
        for stage in &self.stages {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {{\"stage\": \"{}\", \"visits\": {}, \"wall_ns_sum\": {}, \
                 \"wall_ns_max\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \
                 \"alloc_bytes\": {}, \"alloc_count\": {}, \"bytes_max_single\": {}, \
                 \"bytes_max_visit\": {}, \"count_max_visit\": {}}}",
                stage.name,
                stage.visits(),
                stage.wall.sum(),
                stage.wall.max(),
                stage.wall.percentile(0.50),
                stage.wall.percentile(0.95),
                stage.wall.percentile(0.99),
                stage.alloc_bytes,
                stage.alloc_count,
                stage.bytes_max_single,
                stage.bytes_max_visit,
                stage.count_max_visit,
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Renders the report as a fixed-width table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<17} {:>9} {:>9} {:>9} {:>9} {:>10} {:>9} {:>10}",
            "stage", "visits", "p50", "p95", "p99", "alloc", "allocs", "max/visit"
        );
        if self.stages.is_empty() {
            let _ = writeln!(out, "(no samples — selfprof feature disabled or idle)");
        }
        for stage in &self.stages {
            let _ = writeln!(
                out,
                "{:<17} {:>9} {:>9} {:>9} {:>9} {:>10} {:>9} {:>10}",
                stage.name,
                stage.visits(),
                fmt_ns(stage.wall.percentile(0.50)),
                fmt_ns(stage.wall.percentile(0.95)),
                fmt_ns(stage.wall.percentile(0.99)),
                fmt_bytes(stage.alloc_bytes),
                stage.alloc_count,
                fmt_bytes(stage.bytes_max_visit),
            );
        }
        let _ = writeln!(out, "peak rss {}", fmt_bytes(self.peak_rss_bytes));
        out
    }
}

/// Human scale for nanosecond readouts (`842ns`, `3.1us`, `2.4ms`, …).
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}us", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// Human scale for byte readouts.
fn fmt_bytes(bytes: u64) -> String {
    match bytes {
        0..=1023 => format!("{bytes}B"),
        1024..=1_048_575 => format!("{:.1}KiB", bytes as f64 / 1024.0),
        1_048_576..=1_073_741_823 => format!("{:.1}MiB", bytes as f64 / 1_048_576.0),
        _ => format!("{:.2}GiB", bytes as f64 / 1_073_741_824.0),
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], ReportError> {
        if self.bytes.len() < n {
            return Err(ReportError::Malformed(field));
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, ReportError> {
        Ok(u32::from_le_bytes(
            self.take(4, field)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, ReportError> {
        Ok(u64::from_le_bytes(
            self.take(8, field)?.try_into().expect("8 bytes"),
        ))
    }

    fn str(&mut self, field: &'static str) -> Result<&'a str, ReportError> {
        let len = self.u32(field)? as usize;
        if len > 64 {
            return Err(ReportError::Malformed(field));
        }
        std::str::from_utf8(self.take(len, field)?).map_err(|_| ReportError::Malformed(field))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> SelfProfReport {
        let mut wall = Histogram::new(&NS_BOUNDS);
        for ns in [300, 5_000, 5_000, 2_000_000] {
            wall.add(ns);
        }
        SelfProfReport {
            version: REPORT_VERSION,
            peak_rss_bytes: 123 << 20,
            stages: vec![StageReport {
                name: "vm_slice".to_string(),
                wall,
                alloc_bytes: 4096,
                alloc_count: 17,
                bytes_max_single: 1024,
                bytes_max_visit: 2048,
                count_max_visit: 9,
            }],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let report = sample_report();
        let blob = report.encode();
        let back = SelfProfReport::decode(&blob).expect("decode");
        assert_eq!(back, report);
        assert_eq!(back.stage("vm_slice").unwrap().visits(), 4);
        assert!(back.stage("prewarm").is_none());
    }

    #[test]
    fn decode_rejects_corruption() {
        let report = sample_report();
        let blob = report.encode();
        assert_eq!(
            SelfProfReport::decode(&blob[..10]),
            Err(ReportError::TooShort)
        );
        let mut bad_magic = blob.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            SelfProfReport::decode(&bad_magic),
            Err(ReportError::BadMagic)
        );
        let mut bad_version = blob.clone();
        bad_version[4] = 99;
        assert_eq!(
            SelfProfReport::decode(&bad_version),
            Err(ReportError::UnsupportedVersion(99))
        );
        let mut flipped = blob.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert_eq!(
            SelfProfReport::decode(&flipped),
            Err(ReportError::ChecksumMismatch)
        );
        let mut truncated = blob.clone();
        truncated.truncate(blob.len() - 12);
        assert!(SelfProfReport::decode(&truncated).is_err());
    }

    #[test]
    fn json_and_table_render_percentiles() {
        let report = sample_report();
        let json = report.to_json();
        assert!(json.contains("\"stage\": \"vm_slice\""));
        assert!(json.contains("\"visits\": 4"));
        // 4 samples: p50 is the 2nd (5000ns bucket → le 8192).
        assert!(json.contains("\"p50_ns\": 8192"));
        // p99 lands on the last sample's bucket (2ms → le 2^21 = 2097152).
        assert!(json.contains("\"p99_ns\": 2097152"));
        let table = report.render_table();
        assert!(table.contains("vm_slice"));
        assert!(table.contains("peak rss"));
        assert!(SelfProfReport::empty()
            .render_table()
            .contains("no samples"));
    }
}
