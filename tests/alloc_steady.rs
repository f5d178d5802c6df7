//! Allocation-count regression tier for the frame hot path (issue 10).
//!
//! A counting global allocator wraps `System`; a warm steady-state
//! transcode + compensate loop — decode into a reused frame, RGB
//! conversion in place, histogram accumulation into a reused
//! [`Histogram`], LUT compensation in place, YUV conversion in place,
//! re-encode through the encoder's recycled scratch — must perform
//! **zero** heap allocations per frame once the session is warm.
//!
//! A second test holds warm `PlaybackClient::play` to a per-session
//! allocation count: a stream twice as long must cost exactly as many
//! allocation calls.
//!
//! The tests live in their own integration-test binary because a
//! `#[global_allocator]` is process-wide; its counters are per thread
//! (see [`CountingAlloc`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use annolight_codec::{Decoder, EncodedStream, Encoder, EncoderConfig};
use annolight_display::DeviceProfile;
use annolight_imgproc::{CompensationLut, Frame, Histogram, Yuv420Frame};
use annolight_power::SystemPowerModel;
use annolight_stream::PlaybackClient;

/// Counts every allocation routed through the global allocator, per
/// thread: each test measures only the calls its own thread makes, so
/// the tests in this binary (and the harness around them) can run
/// concurrently without polluting each other's windows. Every loop
/// measured here runs inline on the test's thread.
struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOC_CALLS.with(|c| c.set(c.get() + 1));
    ALLOC_BYTES.with(|c| c.set(c.get() + bytes as u64));
}

/// `(allocation calls, bytes)` made by this thread so far.
fn counts() -> (u64, u64) {
    (ALLOC_CALLS.with(Cell::get), ALLOC_BYTES.with(Cell::get))
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

const W: u32 = 64;
const H: u32 = 48;
const WARMUP_FRAMES: usize = 24;
const MEASURED_FRAMES: usize = 64;

fn source_frame(i: usize) -> Frame {
    Frame::from_fn(W, H, |x, y| {
        let v = x.wrapping_mul(5).wrapping_add(y.wrapping_mul(11)).wrapping_add(i as u32 * 7);
        [(v % 240) as u8, ((v * 3) % 230) as u8, ((v * 5) % 250) as u8]
    })
}

#[test]
fn warm_transcode_and_compensate_allocates_zero_bytes_per_frame() {
    let total = WARMUP_FRAMES + MEASURED_FRAMES;

    // Pre-encode the input stream (allocations here are setup, not
    // steady state).
    let config = EncoderConfig { width: W, height: H, fps: 12.0, ..EncoderConfig::default() };
    let mut src = Encoder::new(config).expect("valid encoder geometry");
    for i in 0..total {
        src.push_frame(&source_frame(i)).expect("frames match geometry");
    }
    let input = src.finish();

    // The warm session: every stage writes into a pre-sized, reused
    // buffer. `reserve_body` pre-sizes the output container so packet
    // appends never grow it mid-loop.
    let mut dec = Decoder::new(&input).expect("input stream parses");
    let mut enc = Encoder::new(config).expect("valid encoder geometry");
    enc.reserve_body(total * (W as usize * H as usize * 3 + 64));
    let lut = CompensationLut::new(1.31);
    let mut hist = Histogram::new();
    let mut yuv = Yuv420Frame::new(W, H).expect("even dimensions");
    let mut rgb = source_frame(0);
    let mut recoded = Yuv420Frame::new(W, H).expect("even dimensions");

    let step = |yuv: &mut Yuv420Frame,
                    rgb: &mut Frame,
                    recoded: &mut Yuv420Frame,
                    hist: &mut Histogram,
                    dec: &mut Decoder,
                    enc: &mut Encoder| {
        assert!(dec.decode_next_yuv_into(yuv).expect("decode succeeds"), "stream has frames");
        yuv.to_rgb_into(rgb).expect("geometry matches");
        rgb.luma_histogram_into(hist);
        lut.apply(rgb);
        rgb.to_yuv420_into(recoded).expect("geometry matches");
        enc.push_yuv_frame(recoded).expect("frames match geometry");
    };

    for _ in 0..WARMUP_FRAMES {
        step(&mut yuv, &mut rgb, &mut recoded, &mut hist, &mut dec, &mut enc);
    }

    let (calls_before, bytes_before) = counts();
    for _ in 0..MEASURED_FRAMES {
        step(&mut yuv, &mut rgb, &mut recoded, &mut hist, &mut dec, &mut enc);
    }
    let calls = counts().0 - calls_before;
    let bytes = counts().1 - bytes_before;

    assert_eq!(
        (calls, bytes),
        (0, 0),
        "warm steady-state transcode+compensate must not allocate: \
         {calls} allocation calls / {bytes} bytes over {MEASURED_FRAMES} frames \
         ({} bytes/frame)",
        bytes / MEASURED_FRAMES as u64
    );

    // The session still produces a valid stream after the measured
    // window (sanity: the zero-allocation loop did real work).
    let out = enc.finish();
    assert_eq!(out.frame_count(), total as u32);
    let decoded = Decoder::new(&out)
        .expect("output stream parses")
        .decode_all()
        .expect("output stream decodes");
    assert_eq!(decoded.len(), total);
}

/// Encodes `frames` source frames (`W`×`H`) into one stream.
fn encoded(frames: usize) -> EncodedStream {
    let config = EncoderConfig { width: W, height: H, fps: 12.0, ..EncoderConfig::default() };
    let mut enc = Encoder::new(config).expect("valid encoder geometry");
    for i in 0..frames {
        enc.push_frame(&source_frame(i)).expect("frames match geometry");
    }
    enc.finish()
}

/// Allocation calls made by one `PlaybackClient::play` of `stream`.
fn play_alloc_calls(client: &PlaybackClient, stream: &EncodedStream) -> u64 {
    let before = counts().0;
    let report = client.play(stream, None).expect("stream plays");
    let calls = counts().0 - before;
    assert_eq!(report.frames, stream.frame_count());
    calls
}

#[test]
fn warm_playback_allocates_nothing_per_frame() {
    let client = PlaybackClient::new(DeviceProfile::ipaq_5555(), SystemPowerModel::ipaq_5555());
    let short = encoded(MEASURED_FRAMES);
    let long = encoded(2 * MEASURED_FRAMES);
    // Warm-up: lazy process-wide state (kernel-tier detection) settles.
    play_alloc_calls(&client, &short);
    let short_calls = play_alloc_calls(&client, &short);
    let long_calls = play_alloc_calls(&client, &long);
    assert_eq!(
        short_calls, long_calls,
        "warm playback must not allocate per frame: {short_calls} allocation calls for \
         {MEASURED_FRAMES} frames, {long_calls} for {} frames",
        2 * MEASURED_FRAMES
    );
}
