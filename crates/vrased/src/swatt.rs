//! SW-Att: the trusted attestation routine resident in ROM.
//!
//! VRASED ships SW-Att as immutable code in ROM; its functional core is
//! `HMAC-SHA256(K, challenge ‖ measured regions)`. Here the routine runs
//! natively when the simulated `PC` traps onto the ROM entry point
//! (`attest` below is the functional core; the device layer in the `asap`
//! crate drives the trap, synthesizes the corresponding bus signals so
//! the monitors observe the ROM execution, and charges the cycle cost).
//!
//! The measured transcript is canonical and collision-free:
//! `label ‖ start ‖ len` frames every region, so distinct region
//! geometries can never produce identical transcripts. [`Transcript`]
//! streams each frame straight into the MAC, so a measurement copies
//! no region and allocates nothing.

use crate::props::PropCtx;
use openmsp430::mem::{MemRegion, Memory};
use pox_crypto::hmac::{HmacKey, HmacSha256};

/// Size of the verifier challenge in bytes.
pub const CHAL_LEN: usize = 16;

/// Size of the attestation result (HMAC-SHA256 tag).
pub const MAC_LEN: usize = 32;

/// A measured item: a label plus bytes (either a memory region or a
/// direct value such as the `EXEC` flag).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasuredItem {
    /// Domain-separation label.
    pub label: String,
    /// Region start (0 for direct values).
    pub start: u16,
    /// The measured bytes.
    pub bytes: Vec<u8>,
}

impl MeasuredItem {
    /// Measures a memory region.
    pub fn region(label: &str, mem: &Memory, region: MemRegion) -> MeasuredItem {
        MeasuredItem {
            label: label.to_string(),
            start: region.start(),
            bytes: mem.snapshot(region),
        }
    }

    /// Measures a direct value.
    pub fn value(label: &str, bytes: Vec<u8>) -> MeasuredItem {
        MeasuredItem {
            label: label.to_string(),
            start: 0,
            bytes,
        }
    }
}

/// An SW-Att measurement in progress: the MAC over
/// `"VRASED-SWATT-v1" ‖ chal`, then one `label ‖ start ‖ len ‖ bytes`
/// frame per [`Transcript::measure`] call.
///
/// This is the functional core of SW-Att; both the prover (over its real
/// memory) and the verifier (over expected contents) run it.
#[derive(Debug, Clone)]
pub struct Transcript {
    mac: HmacSha256,
}

impl Transcript {
    /// Starts a measurement under `key` and the verifier's challenge.
    pub fn begin(key: &HmacKey, chal: &[u8; CHAL_LEN]) -> Transcript {
        let mut mac = HmacSha256::with_key(key);
        mac.update(b"VRASED-SWATT-v1");
        mac.update(chal);
        Transcript { mac }
    }

    /// Absorbs one item's frame: `len(label) ‖ label ‖ start ‖ len ‖ bytes`,
    /// integers little-endian.
    pub fn measure(&mut self, label: &str, start: u16, bytes: &[u8]) {
        self.mac.update(&(label.len() as u32).to_le_bytes());
        self.mac.update(label.as_bytes());
        self.mac.update(&start.to_le_bytes());
        self.mac.update(&(bytes.len() as u32).to_le_bytes());
        self.mac.update(bytes);
    }

    /// The attestation MAC.
    pub fn finish(self) -> [u8; MAC_LEN] {
        self.mac.finalize()
    }
}

/// Computes the attestation MAC over a challenge and measured items.
pub fn attest(key: &[u8], chal: &[u8; CHAL_LEN], items: &[MeasuredItem]) -> [u8; MAC_LEN] {
    let mut t = Transcript::begin(&HmacKey::new(key), chal);
    for item in items {
        t.measure(&item.label, item.start, &item.bytes);
    }
    t.finish()
}

/// Cycle cost model for the ROM routine: dominated by the HMAC
/// compression function at ~`COMPRESS_CYCLES` per 64-byte block, plus a
/// fixed setup cost. Values follow the order of magnitude VRASED reports
/// for HACL* HMAC on MSP430 (hundreds of cycles per byte).
pub fn swatt_cycle_cost(measured_bytes: usize) -> u64 {
    const SETUP_CYCLES: u64 = 2_000;
    const CYCLES_PER_BLOCK: u64 = 8_000;
    let blocks = (measured_bytes as u64).div_ceil(64).max(1);
    SETUP_CYCLES + blocks * CYCLES_PER_BLOCK
}

/// Reads the device key from its gated region (callable only by the
/// device layer while simulating SW-Att execution; the key-guard monitor
/// observes the access).
pub fn read_key(mem: &Memory, ctx: &PropCtx) -> Vec<u8> {
    mem.snapshot(ctx.layout.key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmsp430::layout::MemLayout;

    fn chal(seed: u8) -> [u8; CHAL_LEN] {
        [seed; CHAL_LEN]
    }

    #[test]
    fn deterministic_and_key_dependent() {
        let items = vec![MeasuredItem::value("exec", vec![1])];
        let m1 = attest(b"k1", &chal(1), &items);
        let m2 = attest(b"k1", &chal(1), &items);
        let m3 = attest(b"k2", &chal(1), &items);
        assert_eq!(m1, m2);
        assert_ne!(m1, m3);
    }

    #[test]
    fn challenge_freshness_changes_mac() {
        let items = vec![MeasuredItem::value("exec", vec![1])];
        assert_ne!(
            attest(b"k", &chal(1), &items),
            attest(b"k", &chal(2), &items)
        );
    }

    #[test]
    fn content_binding() {
        let mut mem = Memory::new();
        let region = MemRegion::new(0xE000, 0xE00F);
        let m1 = attest(b"k", &chal(1), &[MeasuredItem::region("er", &mem, region)]);
        mem.write_byte(0xE005, 0xFF);
        let m2 = attest(b"k", &chal(1), &[MeasuredItem::region("er", &mem, region)]);
        assert_ne!(m1, m2, "one flipped byte must change the MAC");
    }

    #[test]
    fn framing_prevents_region_splicing() {
        // (AB, C) and (A, BC) must measure differently.
        let i1 = vec![
            MeasuredItem::value("x", vec![1, 2]),
            MeasuredItem::value("y", vec![3]),
        ];
        let i2 = vec![
            MeasuredItem::value("x", vec![1]),
            MeasuredItem::value("y", vec![2, 3]),
        ];
        assert_ne!(attest(b"k", &chal(0), &i1), attest(b"k", &chal(0), &i2));
    }

    #[test]
    fn start_address_is_bound() {
        let mut mem = Memory::new();
        mem.write_byte(0xE000, 7);
        mem.write_byte(0xF000, 7);
        let a = MeasuredItem::region("er", &mem, MemRegion::new(0xE000, 0xE000));
        let b = MeasuredItem::region("er", &mem, MemRegion::new(0xF000, 0xF000));
        assert_ne!(attest(b"k", &chal(0), &[a]), attest(b"k", &chal(0), &[b]));
    }

    #[test]
    fn transcript_streams_the_same_frames_as_items() {
        let items = vec![
            MeasuredItem::value("exec", vec![1]),
            MeasuredItem::value("er", vec![0xA5; 100]),
        ];
        let key = HmacKey::new(b"k");
        let mut t = Transcript::begin(&key, &chal(3));
        t.measure("exec", 0, &[1]);
        t.measure("er", 0, &[0xA5; 100]);
        assert_eq!(t.finish(), attest(b"k", &chal(3), &items));
    }

    #[test]
    fn cycle_cost_scales_with_size() {
        assert!(swatt_cycle_cost(64) < swatt_cycle_cost(4096));
        assert!(
            swatt_cycle_cost(0) > 0,
            "setup cost is charged even for empty input"
        );
    }

    #[test]
    fn read_key_uses_layout_region() {
        let layout = MemLayout::default();
        let mut mem = Memory::new();
        mem.write_byte(layout.key.start(), 0xAA);
        let k = read_key(&mem, &PropCtx::new(layout));
        assert_eq!(k.len() as u32, layout.key.len());
        assert_eq!(k[0], 0xAA);
    }
}
