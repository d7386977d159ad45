//! The fixed set of instrumented pipeline stages.
//!
//! Stages are a closed enum rather than free-form strings so the hot path
//! can index a flat per-thread slot array with one `u8` — no hashing, no
//! interning, and (crucially for the measuring allocator) no allocation on
//! the attribution path.

/// One instrumented stage of the serve/bench pipeline.
///
/// The discriminant indexes the per-thread slot arrays, so variants must
/// stay dense from zero and [`STAGE_COUNT`] must track the count.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Stage {
    /// Decoding a request frame off the wire (the reactor's dispatch path).
    FrameDecode = 0,
    /// A shard worker handling one dispatched request.
    ShardDispatch = 1,
    /// One fueled `Vm::step_linked` slice.
    VmSlice = 2,
    /// Encoding a session snapshot.
    SnapshotSave = 3,
    /// Decoding a session snapshot (restore and warm-start paths).
    SnapshotRestore = 4,
    /// Publishing a profile into the fleet store.
    ProfilePublish = 5,
    /// Prewarming a fresh session from the fleet store aggregate.
    Prewarm = 6,
    /// A bench recorder producing one workload record.
    BenchRecord = 7,
}

/// Number of [`Stage`] variants; sizes the per-thread slot arrays.
pub const STAGE_COUNT: usize = 8;

/// Sentinel for "no stage active" in the thread-local stage cell.
#[cfg(feature = "enabled")]
pub(crate) const NO_STAGE: u8 = u8::MAX;

impl Stage {
    /// Every stage, in discriminant order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::FrameDecode,
        Stage::ShardDispatch,
        Stage::VmSlice,
        Stage::SnapshotSave,
        Stage::SnapshotRestore,
        Stage::ProfilePublish,
        Stage::Prewarm,
        Stage::BenchRecord,
    ];

    /// The stable snake_case name used in reports, JSON, and gate files.
    pub fn name(self) -> &'static str {
        match self {
            Stage::FrameDecode => "frame_decode",
            Stage::ShardDispatch => "shard_dispatch",
            Stage::VmSlice => "vm_slice",
            Stage::SnapshotSave => "snapshot_save",
            Stage::SnapshotRestore => "snapshot_restore",
            Stage::ProfilePublish => "profile_publish",
            Stage::Prewarm => "prewarm",
            Stage::BenchRecord => "bench_record",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discriminants_are_dense_and_named() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(*stage as usize, i);
            assert!(!stage.name().is_empty());
        }
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), STAGE_COUNT, "stage names must be unique");
    }
}
