//! Output checks. Every workload runs these before it reports a number;
//! a failed check ends the run with a non-zero exit and no result line.

use pol_core::codec::{self, columnar, manifest};
use pol_core::Inventory;
use pol_serve::proto::{decode_response, Response};
use std::path::Path;

/// Compares produced bytes against an oracle's.
pub fn same_bytes(what: &str, want: &[u8], got: &[u8]) -> Result<(), String> {
    if want == got {
        return Ok(());
    }
    let at = want
        .iter()
        .zip(got)
        .position(|(a, b)| a != b)
        .unwrap_or(want.len().min(got.len()));
    Err(format!(
        "{what}: {} bytes differ from the {}-byte oracle at offset {at}",
        got.len(),
        want.len()
    ))
}

/// The batch oracle of the ingest workload, in both snapshot formats.
pub struct InventoryOracle {
    /// POLINV2 bytes.
    pub v2: Vec<u8>,
    /// POLINV3 bytes.
    pub v3: Vec<u8>,
}

impl InventoryOracle {
    /// Encodes the oracle inventory.
    pub fn new(inv: &Inventory) -> InventoryOracle {
        InventoryOracle {
            v2: codec::to_bytes(inv),
            v3: columnar::to_bytes(inv),
        }
    }

    /// The inventory must encode to the oracle's bytes in both formats.
    pub fn check(&self, what: &str, inv: &Inventory) -> Result<(), String> {
        same_bytes(
            &format!("{what} (POLINV2)"),
            &self.v2,
            &codec::to_bytes(inv),
        )?;
        same_bytes(
            &format!("{what} (POLINV3)"),
            &self.v3,
            &columnar::to_bytes(inv),
        )
    }
}

/// The ingest run's own invariants: nothing fell behind the reorder
/// bound, and the published delta chain verifies end to end with
/// contiguous generations.
pub fn ingest_run(late_dropped: u64, manifest_path: &Path) -> Result<usize, String> {
    if late_dropped != 0 {
        return Err(format!(
            "{late_dropped} records fell behind the reorder bound"
        ));
    }
    let chain = manifest::verify_chain(manifest_path)
        .map_err(|e| format!("delta chain failed verification: {e}"))?;
    for (i, f) in chain.files.iter().enumerate() {
        if f.generation != i as u64 {
            return Err(format!("chain file {i} holds generation {}", f.generation));
        }
    }
    Ok(chain.files.len())
}

/// How a served response compares with the in-process reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Byte-identical to the reference answer.
    Correct,
    /// Refused (`Busy`): counted as failed, not wrong.
    Refused,
    /// A different answer: the run is wrong.
    Wrong,
}

/// Compares an encoded response payload with the reference payload.
/// Only `Busy` is a refusal: an `Error` the reference does not give is a
/// wrong answer.
pub fn response(want: &[u8], got: &[u8]) -> Verdict {
    if want == got {
        return Verdict::Correct;
    }
    match decode_response(got) {
        Ok(Response::Busy) => Verdict::Refused,
        _ => Verdict::Wrong,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_serve::proto::encode_response;

    #[test]
    fn a_single_flipped_byte_is_rejected() {
        let want = vec![1u8, 2, 3, 4];
        assert!(same_bytes("x", &want, &want).is_ok());
        let mut got = want.clone();
        got[2] ^= 0x40;
        let err = same_bytes("x", &want, &got).unwrap_err();
        assert!(err.contains("offset 2"), "{err}");
        assert!(same_bytes("x", &want, &want[..3]).is_err());
    }

    #[test]
    fn a_different_inventory_is_rejected_in_both_formats() {
        let (ds, out) = small_build();
        let oracle = InventoryOracle::new(&out);
        assert!(oracle.check("same", &out).is_ok());
        // Drop the second half of every track: the inventory is
        // plausible but wrong.
        let mut positions = ds.positions.clone();
        for track in &mut positions {
            track.truncate(track.len() / 2);
        }
        let engine = pol_engine::Engine::new(1);
        let cfg = pol_core::PipelineConfig::default();
        let ports = pol_bench::port_sites(cfg.port_radius_km);
        let wrong = pol_core::run_fused(&engine, positions, &ds.statics, &ports, &cfg)
            .unwrap()
            .inventory;
        assert!(oracle.check("wrong", &wrong).is_err());
    }

    #[test]
    fn late_records_and_a_corrupt_chain_are_rejected() {
        let (_, inv) = small_build();
        let dir = Path::new("work").join(format!("check-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let mut publisher = pol_stream::DeltaPublisher::create(&dir);
        publisher.publish_at(0, &inv).unwrap();
        publisher.publish_at(1, &inv).unwrap();
        let man = dir.join(pol_stream::MANIFEST_NAME);
        assert_eq!(ingest_run(0, &man), Ok(2));
        assert!(ingest_run(3, &man).is_err());
        // Flip one byte in the middle of the newest delta file.
        let entry = manifest::load(&man).unwrap().entries[1].name.clone();
        let path = dir.join(entry);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, bytes).unwrap();
        assert!(ingest_run(0, &man).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_wrong_answer_is_told_apart_from_a_refusal() {
        let want = encode_response(&Response::Cells(vec![1, 2, 3]));
        assert_eq!(response(&want, &want), Verdict::Correct);
        let other = encode_response(&Response::Cells(vec![1, 2, 4]));
        assert_eq!(response(&want, &other), Verdict::Wrong);
        let busy = encode_response(&Response::Busy);
        assert_eq!(response(&want, &busy), Verdict::Refused);
        let error = encode_response(&Response::Error("worker panicked".into()));
        assert_eq!(response(&want, &error), Verdict::Wrong);
        assert_eq!(response(&error, &error), Verdict::Correct);
        assert_eq!(response(&want, &[0xff, 0x00]), Verdict::Wrong);
    }

    fn small_build() -> (pol_fleetsim::Dataset, Inventory) {
        let scenario = pol_fleetsim::ScenarioConfig {
            n_vessels: 12,
            duration_days: 7,
            ..pol_bench::experiment_scenario(11)
        };
        let ds = pol_fleetsim::scenario::generate(&scenario);
        let engine = pol_engine::Engine::new(1);
        let cfg = pol_core::PipelineConfig::default();
        let ports = pol_bench::port_sites(cfg.port_radius_km);
        let out =
            pol_core::run_fused(&engine, ds.positions.clone(), &ds.statics, &ports, &cfg).unwrap();
        assert!(!out.inventory.is_empty());
        (ds, out.inventory)
    }
}
