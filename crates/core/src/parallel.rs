//! Intra-clip parallel profiling and compensation.
//!
//! The offline pipeline — per-frame luminance histograms, scene-level
//! planning, per-frame compensation — is embarrassingly parallel across
//! frames and scenes. This module chunks that work across a scoped
//! worker pool built on [`annolight_support::channel`] and
//! `std::thread::scope`, with one headline guarantee:
//!
//! > **Parallel output is byte-identical to serial output** for every
//! > clip, quality level, chunk size and worker count.
//!
//! The guarantee holds by construction:
//!
//! * every unit of work (a frame's [`FrameStats`], a scene's plan, a
//!   frame's compensation) is a pure function of its inputs — exact
//!   integer/fixed-point kernels, no shared mutable state;
//! * chunks are claimed from an atomic cursor in any order, but results
//!   are **reassembled by chunk index**, so the merged output is a pure
//!   function of the input regardless of scheduling;
//! * histogram merging is an unsigned integer sum per bin — an
//!   order- and partitioning-independent reduction
//!   ([`annolight_imgproc::Histogram::merged`]).
//!
//! `workers == 0` selects the inline serial path, which is the
//! deterministic reference the differential suite
//! (`tests/parallel_identity.rs`) compares every other configuration
//! against.

use crate::apply::compensate_frame;
use crate::error::CoreError;
use crate::profile::{FrameStats, LuminanceProfile};
use crate::track::AnnotationTrack;
use annolight_imgproc::{ClipStats, CompensationLut, Frame};
use annolight_support::channel;
use annolight_support::sync::Mutex;
use annolight_video::Clip;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How much intra-clip parallelism to use.
///
/// The default (`workers == 0`) is the serial reference: all work runs
/// inline, in order, on the calling thread. Any `workers > 0` spawns
/// that many scoped threads which claim fixed-size frame chunks from a
/// shared cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads; `0` = inline serial reference.
    pub workers: usize,
    /// Frames (or scenes) per work chunk. Chunking granularity never
    /// affects output bytes, only load balance.
    pub chunk_frames: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self::serial()
    }
}

impl ParallelConfig {
    /// Default chunk granularity: one chunk ≈ one scene's worth of
    /// frames at the library's 12 fps.
    pub const DEFAULT_CHUNK_FRAMES: usize = 16;

    /// The deterministic inline reference configuration.
    #[must_use]
    pub fn serial() -> Self {
        Self { workers: 0, chunk_frames: Self::DEFAULT_CHUNK_FRAMES }
    }

    /// `workers` threads with the default chunk size (`0` = serial).
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        Self { workers, ..Self::serial() }
    }

    /// Overrides the chunk granularity (clamped to ≥ 1 at use sites).
    #[must_use]
    pub fn with_chunk_frames(mut self, chunk_frames: usize) -> Self {
        self.chunk_frames = chunk_frames;
        self
    }

    /// Whether this configuration runs inline on the calling thread.
    #[must_use]
    pub fn is_serial(&self) -> bool {
        self.workers == 0
    }
}

/// Splits `0..n` into contiguous chunks of at most `chunk` items.
#[must_use]
pub fn chunk_ranges(n: usize, chunk: usize) -> Vec<Range<usize>> {
    let chunk = chunk.max(1);
    let mut out = Vec::with_capacity(n.div_ceil(chunk));
    let mut start = 0;
    while start < n {
        let end = (start + chunk).min(n);
        out.push(start..end);
        start = end;
    }
    out
}

/// Maps `f` over the chunk ranges of `0..n`, returning results in chunk
/// order.
///
/// Serial configurations (or single-chunk inputs) evaluate inline and
/// in order. Parallel configurations claim chunk indices from an atomic
/// cursor, stream `(index, result)` pairs back over a channel, and
/// reassemble by index — so the returned vector is identical for every
/// worker count.
pub fn chunked_map<T, F>(n: usize, cfg: &ParallelConfig, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let ranges = chunk_ranges(n, cfg.chunk_frames);
    let threads = if cfg.workers == 0 { 0 } else { cfg.workers.min(ranges.len()) };
    if threads <= 1 {
        // Serial reference (also taken when one worker would just add
        // thread hand-off latency for an identical, in-order result).
        return ranges.into_iter().map(f).collect();
    }
    let n_chunks = ranges.len();
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n_chunks);
    slots.resize_with(n_chunks, || None);
    std::thread::scope(|s| {
        let (tx, rx) = channel::unbounded::<(usize, T)>();
        for _ in 0..threads {
            let tx = tx.clone();
            let cursor = &cursor;
            let ranges = &ranges;
            let f = &f;
            s.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(range) = ranges.get(i) else { break };
                let value = f(range.clone());
                if tx.send((i, value)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for _ in 0..n_chunks {
            let (i, value) = rx.recv().expect("every chunk produces one result");
            slots[i] = Some(value);
        }
    });
    slots
        .into_iter()
        .map(|v| v.expect("chunk index delivered exactly once"))
        .collect()
}

/// Profiles every frame of `clip`, chunked across `cfg`'s workers.
///
/// Byte-identical to [`LuminanceProfile::of_clip`] for every
/// configuration (each chunk renders and profiles its own frames; the
/// per-chunk stats are concatenated in frame order).
///
/// # Errors
///
/// Returns [`CoreError::EmptyClip`] if the clip has no frames.
pub fn profile_clip(clip: &Clip, cfg: &ParallelConfig) -> Result<LuminanceProfile, CoreError> {
    let n = clip.frame_count() as usize;
    if n == 0 {
        return Err(CoreError::EmptyClip);
    }
    let chunks = chunked_map(n, cfg, |range| {
        range
            .map(|i| FrameStats::of_frame(i as u32, &clip.frame(i as u32)))
            .collect::<Vec<_>>()
    });
    LuminanceProfile::from_stats(clip.fps(), chunks.into_iter().flatten().collect())
}

/// Profiles a decoded frame slice at `fps`, chunked across `cfg`'s
/// workers. Byte-identical to
/// [`LuminanceProfile::of_frames`] over the same frames.
///
/// # Errors
///
/// Returns [`CoreError::EmptyClip`] for an empty slice.
pub fn profile_frames(
    fps: f64,
    frames: &[Frame],
    cfg: &ParallelConfig,
) -> Result<LuminanceProfile, CoreError> {
    if frames.is_empty() {
        return Err(CoreError::EmptyClip);
    }
    let chunks = chunked_map(frames.len(), cfg, |range| {
        range
            .map(|i| FrameStats::of_frame(i as u32, &frames[i]))
            .collect::<Vec<_>>()
    });
    LuminanceProfile::from_stats(fps, chunks.into_iter().flatten().collect())
}

/// Profiles several decoded clips in **one** chunked dispatch.
///
/// Each job is `(fps, frames)`; the result holds one profile per job,
/// byte-identical to calling [`profile_frames`] per job. The frames of
/// all jobs are flattened into a single global index space so one
/// worker pool load-balances across every clip at once — short clips no
/// longer leave workers idle while a long clip finishes, which is the
/// point of batched GOP scheduling in the transcode proxy.
///
/// # Errors
///
/// Returns [`CoreError::EmptyClip`] if any job has no frames (checked
/// up front, before any work is dispatched).
pub fn profile_frames_batched(
    jobs: &[(f64, &[Frame])],
    cfg: &ParallelConfig,
) -> Result<Vec<LuminanceProfile>, CoreError> {
    let mut offsets = Vec::with_capacity(jobs.len());
    let mut total = 0usize;
    for (_, frames) in jobs {
        if frames.is_empty() {
            return Err(CoreError::EmptyClip);
        }
        offsets.push(total);
        total += frames.len();
    }
    let chunks = chunked_map(total, cfg, |range| {
        range
            .map(|g| {
                // Map the global frame index back to (job, local index);
                // stats carry the *job-local* index so the per-job
                // profile matches the serial reference exactly.
                let j = offsets.partition_point(|&o| o <= g) - 1;
                let local = g - offsets[j];
                FrameStats::of_frame(local as u32, &jobs[j].1[local])
            })
            .collect::<Vec<_>>()
    });
    let mut flat = chunks.into_iter().flatten();
    jobs.iter()
        .map(|(fps, frames)| {
            LuminanceProfile::from_stats(*fps, flat.by_ref().take(frames.len()).collect())
        })
        .collect()
}

/// Compensates several clips (each against its own track) in **one**
/// chunked dispatch, in place, returning per-job clipping statistics in
/// frame order.
///
/// Byte-identical (frames *and* stats) to calling
/// [`compensate_frames`] per job, for every chunk size and worker
/// count; like [`profile_frames_batched`], all jobs share one worker
/// pool so mixed-length batches load-balance.
///
/// # Errors
///
/// Returns [`CoreError::FrameOutOfRange`] if any job's slice is longer
/// than its annotated range (checked up front, before any frame of any
/// job is modified).
pub fn compensate_frames_batched(
    jobs: &mut [(&mut [Frame], &AnnotationTrack)],
    cfg: &ParallelConfig,
) -> Result<Vec<Vec<ClipStats>>, CoreError> {
    // Validate every job before touching any pixels so a failure in one
    // clip can't leave another half-compensated.
    for (frames, track) in jobs.iter() {
        if !frames.is_empty() {
            track.entry_at((frames.len() - 1) as u32)?;
        }
    }
    let chunk = cfg.chunk_frames.max(1);
    let chunk_counts: Vec<usize> =
        jobs.iter().map(|(frames, _)| frames.len().div_ceil(chunk)).collect();
    let n_chunks: usize = chunk_counts.iter().sum();
    let threads = if cfg.workers == 0 { 0 } else { cfg.workers.min(n_chunks) };
    if threads <= 1 {
        return jobs
            .iter_mut()
            .map(|(frames, track)| {
                frames
                    .iter_mut()
                    .enumerate()
                    .map(|(i, frame)| compensate_frame(frame, track, i as u32))
                    .collect()
            })
            .collect();
    }
    // (result slot, first frame index, track, frames) per chunk.
    type Chunk<'a> = (usize, usize, &'a AnnotationTrack, &'a mut [Frame]);
    let queue: Mutex<VecDeque<Chunk<'_>>> = {
        let mut q = VecDeque::with_capacity(n_chunks);
        let mut slot = 0usize;
        for (frames, track) in jobs.iter_mut() {
            for (ci, slice) in frames.chunks_mut(chunk).enumerate() {
                q.push_back((slot, ci * chunk, *track, slice));
                slot += 1;
            }
        }
        Mutex::new(q)
    };
    let mut slots: Vec<Option<Vec<ClipStats>>> = Vec::with_capacity(n_chunks);
    slots.resize_with(n_chunks, || None);
    std::thread::scope(|s| {
        let (tx, rx) = channel::unbounded::<(usize, Vec<ClipStats>)>();
        for _ in 0..threads {
            let tx = tx.clone();
            let queue = &queue;
            s.spawn(move || loop {
                let item = queue.lock().pop_front();
                let Some((slot, base, track, slice)) = item else { break };
                let stats: Vec<ClipStats> = slice
                    .iter_mut()
                    .enumerate()
                    .map(|(j, frame)| {
                        let entry = track
                            .entry_at((base + j) as u32)
                            .expect("range validated before dispatch");
                        CompensationLut::new(entry.compensation).apply(frame)
                    })
                    .collect();
                if tx.send((slot, stats)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for _ in 0..n_chunks {
            let (slot, stats) = rx.recv().expect("every chunk produces one result");
            slots[slot] = Some(stats);
        }
    });
    let mut flat = slots.into_iter().map(|v| v.expect("chunk index delivered exactly once"));
    Ok(chunk_counts
        .iter()
        .map(|&c| flat.by_ref().take(c).flatten().collect())
        .collect())
}

/// Compensates `frames[i]` against `track` entry `i` for every frame,
/// in place, returning the per-frame clipping statistics in frame
/// order. Frame `i`'s compensation factor builds one 256-entry
/// [`CompensationLut`] (the fixed-point `k·Y` table), applied as table
/// look-ups.
///
/// Byte-identical (frames *and* stats) to calling
/// [`compensate_frame`] serially, for every chunk size and worker
/// count.
///
/// # Errors
///
/// Returns [`CoreError::FrameOutOfRange`] if the slice is longer than
/// the annotated range (checked up front, before any frame is
/// modified).
pub fn compensate_frames(
    frames: &mut [Frame],
    track: &AnnotationTrack,
    cfg: &ParallelConfig,
) -> Result<Vec<ClipStats>, CoreError> {
    let n = frames.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    // Validate the whole range before touching any pixels so a partial
    // failure can't leave a half-compensated buffer.
    track.entry_at((n - 1) as u32)?;
    let chunk = cfg.chunk_frames.max(1);
    let n_chunks = n.div_ceil(chunk);
    let threads = if cfg.workers == 0 { 0 } else { cfg.workers.min(n_chunks) };
    if threads <= 1 {
        let mut stats = Vec::with_capacity(n);
        for (i, frame) in frames.iter_mut().enumerate() {
            stats.push(compensate_frame(frame, track, i as u32)?);
        }
        return Ok(stats);
    }
    let queue: Mutex<VecDeque<(usize, usize, &mut [Frame])>> = Mutex::new(
        frames
            .chunks_mut(chunk)
            .enumerate()
            .map(|(ci, slice)| (ci, ci * chunk, slice))
            .collect(),
    );
    let mut slots: Vec<Option<Vec<ClipStats>>> = Vec::with_capacity(n_chunks);
    slots.resize_with(n_chunks, || None);
    std::thread::scope(|s| {
        let (tx, rx) = channel::unbounded::<(usize, Vec<ClipStats>)>();
        for _ in 0..threads {
            let tx = tx.clone();
            let queue = &queue;
            s.spawn(move || loop {
                let item = queue.lock().pop_front();
                let Some((ci, base, slice)) = item else { break };
                let stats: Vec<ClipStats> = slice
                    .iter_mut()
                    .enumerate()
                    .map(|(j, frame)| {
                        let entry = track
                            .entry_at((base + j) as u32)
                            .expect("range validated before dispatch");
                        CompensationLut::new(entry.compensation).apply(frame)
                    })
                    .collect();
                if tx.send((ci, stats)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for _ in 0..n_chunks {
            let (ci, stats) = rx.recv().expect("every chunk produces one result");
            slots[ci] = Some(stats);
        }
    });
    Ok(slots
        .into_iter()
        .flat_map(|v| v.expect("chunk index delivered exactly once"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::Annotator;
    use crate::quality::QualityLevel;
    use annolight_display::DeviceProfile;
    use annolight_video::{ClipLibrary, ClipSpec, ContentKind, SceneSpec};

    fn test_clip() -> Clip {
        ClipLibrary::paper_clip("themovie").unwrap().preview(2.0)
    }

    #[test]
    fn chunk_ranges_tile_exactly() {
        assert_eq!(chunk_ranges(0, 4), Vec::<Range<usize>>::new());
        assert_eq!(chunk_ranges(10, 4), vec![0..4, 4..8, 8..10]);
        assert_eq!(chunk_ranges(8, 4), vec![0..4, 4..8]);
        assert_eq!(chunk_ranges(3, 100), vec![0..3]);
        // Degenerate chunk size clamps to 1.
        assert_eq!(chunk_ranges(2, 0), vec![0..1, 1..2]);
    }

    #[test]
    fn chunked_map_orders_results_for_every_worker_count() {
        let reference: Vec<Vec<usize>> =
            chunked_map(23, &ParallelConfig::serial().with_chunk_frames(5), |r| {
                r.collect::<Vec<_>>()
            });
        for workers in [1, 2, 3, 4, 7, 16] {
            let cfg = ParallelConfig::with_workers(workers).with_chunk_frames(5);
            let got = chunked_map(23, &cfg, |r| r.collect::<Vec<_>>());
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn profile_clip_matches_serial_reference() {
        let clip = test_clip();
        let reference = LuminanceProfile::of_clip(&clip).unwrap();
        for workers in [0, 1, 2, 4] {
            for chunk in [1, 3, 16, 1000] {
                let cfg = ParallelConfig::with_workers(workers).with_chunk_frames(chunk);
                let got = profile_clip(&clip, &cfg).unwrap();
                assert_eq!(got, reference, "workers={workers} chunk={chunk}");
            }
        }
    }

    #[test]
    fn profile_frames_matches_of_frames() {
        let clip = test_clip();
        let frames: Vec<Frame> = clip.frames().collect();
        let reference = LuminanceProfile::of_frames(clip.fps(), frames.iter().cloned()).unwrap();
        let cfg = ParallelConfig::with_workers(3).with_chunk_frames(7);
        assert_eq!(profile_frames(clip.fps(), &frames, &cfg).unwrap(), reference);
    }

    #[test]
    fn empty_inputs_error() {
        let empty: Vec<Frame> = Vec::new();
        assert_eq!(
            profile_frames(10.0, &empty, &ParallelConfig::serial()).unwrap_err(),
            CoreError::EmptyClip
        );
    }

    #[test]
    fn compensate_matches_serial_reference_bytes_and_stats() {
        let clip = test_clip();
        let annotated = Annotator::new(DeviceProfile::ipaq_5555(), QualityLevel::Q10)
            .annotate_clip(&clip)
            .unwrap();
        let track = annotated.track();
        let original: Vec<Frame> = clip.frames().collect();

        let mut reference = original.clone();
        let mut ref_stats = Vec::new();
        for (i, f) in reference.iter_mut().enumerate() {
            ref_stats.push(compensate_frame(f, track, i as u32).unwrap());
        }
        for workers in [0usize, 1, 2, 4, 7] {
            for chunk in [1usize, 5, 16] {
                let cfg = ParallelConfig::with_workers(workers).with_chunk_frames(chunk);
                let mut frames = original.clone();
                let stats = compensate_frames(&mut frames, track, &cfg).unwrap();
                assert_eq!(frames, reference, "workers={workers} chunk={chunk}");
                assert_eq!(stats, ref_stats, "workers={workers} chunk={chunk}");
            }
        }
    }

    fn small_clip(seed: u64, w: u32, h: u32, secs: f64) -> Clip {
        Clip::new(ClipSpec {
            name: format!("b{seed}"),
            width: w,
            height: h,
            fps: 8.0,
            seed,
            scenes: vec![
                SceneSpec::new(ContentKind::Bright { base: 170, spread: 30 }, secs / 2.0),
                SceneSpec::new(
                    ContentKind::Dark {
                        base: 60,
                        spread: 25,
                        highlight_fraction: 0.02,
                        highlight: 235,
                    },
                    secs / 2.0,
                ),
            ],
        })
        .unwrap()
    }

    #[test]
    fn profile_frames_batched_matches_per_job_serial() {
        // Mixed lengths and geometries: batched output must equal the
        // per-job serial reference profile for every pool shape.
        let clips =
            [small_clip(3, 32, 32, 2.0), small_clip(9, 48, 32, 0.5), small_clip(5, 16, 16, 1.5)];
        let frames: Vec<Vec<Frame>> = clips.iter().map(|c| c.frames().collect()).collect();
        let jobs: Vec<(f64, &[Frame])> =
            clips.iter().zip(&frames).map(|(c, f)| (c.fps(), f.as_slice())).collect();
        let reference: Vec<LuminanceProfile> = jobs
            .iter()
            .map(|(fps, f)| profile_frames(*fps, f, &ParallelConfig::serial()).unwrap())
            .collect();
        for workers in [0usize, 1, 2, 4, 7] {
            for chunk in [1usize, 5, 16] {
                let cfg = ParallelConfig::with_workers(workers).with_chunk_frames(chunk);
                let got = profile_frames_batched(&jobs, &cfg).unwrap();
                assert_eq!(got, reference, "workers={workers} chunk={chunk}");
            }
        }
    }

    #[test]
    fn profile_frames_batched_rejects_empty_job() {
        let clip = small_clip(1, 16, 16, 1.0);
        let frames: Vec<Frame> = clip.frames().collect();
        let jobs: Vec<(f64, &[Frame])> = vec![(clip.fps(), &frames), (clip.fps(), &[])];
        assert_eq!(
            profile_frames_batched(&jobs, &ParallelConfig::with_workers(2)).unwrap_err(),
            CoreError::EmptyClip
        );
    }

    #[test]
    fn compensate_frames_batched_matches_per_job_serial() {
        let clips =
            [small_clip(3, 32, 32, 2.0), small_clip(9, 48, 32, 0.5), small_clip(5, 16, 16, 1.5)];
        let annotated: Vec<_> = clips
            .iter()
            .map(|c| {
                Annotator::new(DeviceProfile::ipaq_5555(), QualityLevel::Q10)
                    .annotate_clip(c)
                    .unwrap()
            })
            .collect();
        let original: Vec<Vec<Frame>> = clips.iter().map(|c| c.frames().collect()).collect();

        let mut reference = original.clone();
        let mut ref_stats = Vec::new();
        for (frames, ann) in reference.iter_mut().zip(&annotated) {
            ref_stats
                .push(compensate_frames(frames, ann.track(), &ParallelConfig::serial()).unwrap());
        }
        for workers in [0usize, 1, 2, 4, 7] {
            for chunk in [1usize, 5, 16] {
                let cfg = ParallelConfig::with_workers(workers).with_chunk_frames(chunk);
                let mut frames = original.clone();
                let mut jobs: Vec<(&mut [Frame], &AnnotationTrack)> = frames
                    .iter_mut()
                    .zip(&annotated)
                    .map(|(f, a)| (f.as_mut_slice(), a.track()))
                    .collect();
                let stats = compensate_frames_batched(&mut jobs, &cfg).unwrap();
                assert_eq!(frames, reference, "workers={workers} chunk={chunk}");
                assert_eq!(stats, ref_stats, "workers={workers} chunk={chunk}");
            }
        }
    }

    #[test]
    fn compensate_frames_batched_validates_every_job_before_mutating() {
        let clip = small_clip(2, 16, 16, 1.0);
        let annotated = Annotator::new(DeviceProfile::ipaq_5555(), QualityLevel::Q5)
            .annotate_clip(&clip)
            .unwrap();
        let mut good: Vec<Frame> = clip.frames().collect();
        // One frame more than the track covers in the *second* job.
        let mut bad: Vec<Frame> = clip.frames().collect();
        bad.push(clip.frame(0));
        let (good_before, bad_before) = (good.clone(), bad.clone());
        let mut jobs: Vec<(&mut [Frame], &AnnotationTrack)> = vec![
            (good.as_mut_slice(), annotated.track()),
            (bad.as_mut_slice(), annotated.track()),
        ];
        let err = compensate_frames_batched(&mut jobs, &ParallelConfig::with_workers(2))
            .unwrap_err();
        assert!(matches!(err, CoreError::FrameOutOfRange { .. }));
        assert_eq!(good, good_before, "no job's frames may be modified on failure");
        assert_eq!(bad, bad_before);
    }

    #[test]
    fn compensate_validates_range_before_mutating() {
        let clip = Clip::new(ClipSpec {
            name: "t".into(),
            width: 16,
            height: 16,
            fps: 4.0,
            seed: 1,
            scenes: vec![SceneSpec::new(ContentKind::Bright { base: 180, spread: 10 }, 1.0)],
        })
        .unwrap();
        let annotated = Annotator::new(DeviceProfile::ipaq_5555(), QualityLevel::Q5)
            .annotate_clip(&clip)
            .unwrap();
        // One frame more than the track covers: typed error, no mutation.
        let mut frames: Vec<Frame> = clip.frames().collect();
        frames.push(clip.frame(0));
        let before = frames.clone();
        let err = compensate_frames(&mut frames, annotated.track(), &ParallelConfig::with_workers(2))
            .unwrap_err();
        assert!(matches!(err, CoreError::FrameOutOfRange { .. }));
        assert_eq!(frames, before, "no frame may be modified on failure");
    }

    #[test]
    fn compensate_empty_slice_is_ok() {
        let clip = test_clip();
        let annotated = Annotator::new(DeviceProfile::ipaq_5555(), QualityLevel::Q10)
            .annotate_clip(&clip)
            .unwrap();
        let mut frames: Vec<Frame> = Vec::new();
        let stats =
            compensate_frames(&mut frames, annotated.track(), &ParallelConfig::with_workers(4))
                .unwrap();
        assert!(stats.is_empty());
    }
}
