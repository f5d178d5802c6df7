//! Client-side energy pricing of spatial scaling (§3: "optimal spatial
//! ... scaling" as an annotation-driven adaptation).
//!
//! The spatial-scale policy trades resolution for energy: a half-resolution
//! stream is a quarter of the bytes, so the WNIC spends less time in
//! receive mode and the decoder touches a quarter of the pixels. Whether
//! that trade is worth making depends on *this* device's power model and
//! *this* channel's timing — which is exactly the per-client information
//! the negotiation phase carries. This module turns (geometry, channel,
//! power model) into the [`ResolutionCost`] the policy trait prices, so
//! [`annolight_core::AnnotationPolicy::select_resolution`] stays a pure
//! decision rule.
//!
//! Backlight power is deliberately excluded from the costs: backlight
//! scaling is the *other* annotation knob and is priced by the planner
//! ([`annolight_core::plan::BacklightPlan`]); keeping it out of the
//! resolution costs keeps the two decisions orthogonal, so the spatial
//! decision never double-counts savings the backlight policy already
//! claims.

use crate::network::WirelessChannel;
use annolight_core::{PolicyKind, ResolutionCost, ResolutionDecision};
use annolight_power::SystemPowerModel;

/// Pixels per second the modelled decoder sustains at full CPU. Half the
/// pixel rate of QVGA-at-30fps-class decode on a 400 MHz XScale — decode
/// of a busy clip keeps the CPU mostly, but not fully, busy.
pub const DECODE_PIXELS_PER_S: f64 = 1.5e6;

/// Prices streaming `frames` frames of `width`×`height` at `fps` over
/// `channel` into `system`'s energy budget, at full and half resolution.
///
/// Bytes are estimated with the same coarse bound the negotiation offer
/// uses (`frames · w · h · 3/2`, near one byte per subsampled pixel), so
/// the decision is made from information both ends already exchange.
/// `half_supported` requires both dimensions to stay multiples of 32 so
/// the downscaled stream still satisfies the codec's macroblock-alignment
/// rule (dimensions divisible by 16) after halving.
///
/// # Panics
///
/// Panics if `fps` is not positive or `frames` is zero.
pub fn resolution_cost(
    width: u32,
    height: u32,
    frames: u32,
    fps: f64,
    channel: &WirelessChannel,
    system: &SystemPowerModel,
) -> ResolutionCost {
    assert!(fps > 0.0, "fps {fps} must be positive");
    assert!(frames > 0, "cannot price an empty stream");
    let duration_s = f64::from(frames) / fps;
    let energy = |w: u32, h: u32| -> f64 {
        let bytes = u64::from(frames) * u64::from(w) * u64::from(h) * 3 / 2;
        let wnic_duty = (channel.transfer_time_s(bytes as usize) / duration_s).clamp(0.0, 1.0);
        let cpu_busy =
            (f64::from(w) * f64::from(h) * fps / DECODE_PIXELS_PER_S).clamp(0.0, 1.0);
        system.power_w_duty(cpu_busy, wnic_duty, 0.0) * duration_s
    };
    ResolutionCost {
        full_energy_j: energy(width, height),
        half_energy_j: energy(width / 2, height / 2),
        half_supported: width.is_multiple_of(32) && height.is_multiple_of(32) && width >= 32 && height >= 32,
    }
}

/// Prices the stream and asks `policy` for its resolution decision — the
/// session layer's one-call wrapper.
pub fn spatial_decision(
    policy: PolicyKind,
    width: u32,
    height: u32,
    frames: u32,
    fps: f64,
    channel: &WirelessChannel,
    system: &SystemPowerModel,
) -> ResolutionDecision {
    let cost = resolution_cost(width, height, frames, fps, channel, system);
    policy.policy().select_resolution(&cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The library clips' geometry: 128×96 at 12 fps, 3 s.
    fn library_geometry() -> (u32, u32, u32, f64) {
        (128, 96, 36, 12.0)
    }

    #[test]
    fn half_resolution_costs_less_energy() {
        let (w, h, n, fps) = library_geometry();
        let cost = resolution_cost(
            w,
            h,
            n,
            fps,
            &WirelessChannel::wifi_80211b(),
            &SystemPowerModel::ipaq_5555(),
        );
        assert!(cost.half_supported);
        assert!(
            cost.half_energy_j < cost.full_energy_j,
            "half {} vs full {}",
            cost.half_energy_j,
            cost.full_energy_j
        );
        // Both bounded by worst-case power times duration.
        let duration = f64::from(n) / fps;
        let ceiling = SystemPowerModel::ipaq_5555().power_w_duty(1.0, 1.0, 0.0) * duration;
        assert!(cost.full_energy_j <= ceiling + 1e-9);
    }

    #[test]
    fn misaligned_dimensions_do_not_offer_half() {
        let cost = resolution_cost(
            100,
            96,
            30,
            10.0,
            &WirelessChannel::wifi_80211b(),
            &SystemPowerModel::ipaq_5555(),
        );
        assert!(!cost.half_supported, "100/2 = 50 is not macroblock-aligned");
    }

    #[test]
    fn only_spatial_scale_takes_the_half_stream() {
        let (w, h, n, fps) = library_geometry();
        let channel = WirelessChannel::wifi_80211b();
        let system = SystemPowerModel::ipaq_5555();
        for p in PolicyKind::ALL {
            let d = spatial_decision(p, w, h, n, fps, &channel, &system);
            if p == PolicyKind::SpatialScale {
                assert!(d.use_half, "128×96 over 802.11b clears the margin");
            } else {
                assert!(!d.use_half, "{p:?} never rescales");
            }
        }
    }

    #[test]
    fn decision_echoes_the_costs() {
        let (w, h, n, fps) = library_geometry();
        let channel = WirelessChannel::wifi_80211b();
        let system = SystemPowerModel::ipaq_5555();
        let cost = resolution_cost(w, h, n, fps, &channel, &system);
        let d = spatial_decision(PolicyKind::SpatialScale, w, h, n, fps, &channel, &system);
        assert_eq!(d.full_energy_j, cost.full_energy_j);
        assert_eq!(d.half_energy_j, cost.half_energy_j);
    }

    #[test]
    #[should_panic(expected = "empty stream")]
    fn zero_frames_panics() {
        let _ = resolution_cost(
            320,
            240,
            0,
            12.0,
            &WirelessChannel::wifi_80211b(),
            &SystemPowerModel::ipaq_5555(),
        );
    }
}
