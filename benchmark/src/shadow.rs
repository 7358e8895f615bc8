//! Traced-run copies of the write path's inner steps.
//!
//! `sync_via` applies an issuance, republishes the snapshot and returns;
//! none of those steps can be timed from outside on the RA under test. A
//! traced repetition therefore feeds every issuance the CA returns to
//! shadows — a second mirror, a second RA, a second write-ahead log — and
//! times the same public calls on them, after the round's timed span has
//! closed. Untraced repetitions have no shadows.

use crate::metrics::Values;
use crate::stats::Samples;
use crate::world::{self, Dictionary};
use ritm_agent::RevocationAgent;
use ritm_ca::IssuanceLog;
use ritm_dictionary::{MirrorDictionary, RevocationIssuance};
use ritm_proto::RitmResponse;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

pub struct Shadow {
    mirror: MirrorDictionary,
    ra: RevocationAgent,
    ca: ritm_dictionary::CaId,
    wal: IssuanceLog,
    wal_path: PathBuf,
    /// `MirrorDictionary::apply_issuance` ÷ batch size, µs.
    pub apply_us_per_rev: Samples,
    /// `MirrorDictionary::snapshot()`, µs.
    pub snapshot_us: Samples,
    /// `mirror_mut` guard scope (apply + republish), µs.
    pub publish_us: Samples,
    /// `IssuanceLog::append` (write + fsync), µs.
    pub wal_append_us: Samples,
    /// `Delta` response frame encode / decode, µs.
    pub delta_encode_us: Samples,
    pub delta_decode_us: Samples,
}

fn us(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64 / 1e3
}

impl Shadow {
    /// Shadows of a mirror that already holds `dict`'s base population.
    pub fn new(dict: &Dictionary, wal_path: PathBuf) -> Self {
        let mut ra = world::new_ra();
        dict.install(&mut ra);
        let _ = std::fs::remove_file(&wal_path);
        let (wal, _) = IssuanceLog::open(&wal_path).expect("open the shadow write-ahead log");
        Shadow {
            mirror: dict.mirror(),
            ra,
            ca: dict.id,
            wal,
            wal_path,
            apply_us_per_rev: Samples::default(),
            snapshot_us: Samples::default(),
            publish_us: Samples::default(),
            wal_append_us: Samples::default(),
            delta_encode_us: Samples::default(),
            delta_decode_us: Samples::default(),
        }
    }

    /// Replays one issuance on every shadow.
    pub fn observe(&mut self, issuance: &RevocationIssuance, now: u64) {
        let t = Instant::now();
        self.mirror
            .apply_issuance(issuance, now)
            .expect("the shadow mirror follows the same CA");
        self.apply_us_per_rev
            .push(us(t) / issuance.serials.len() as f64);

        let t = Instant::now();
        black_box(self.mirror.snapshot());
        self.snapshot_us.push(us(t));

        let t = Instant::now();
        self.ra
            .mirror_mut(&self.ca)
            .expect("the shadow RA follows the CA")
            .apply_issuance(issuance, now)
            .expect("the shadow RA follows the same CA");
        self.publish_us.push(us(t));

        let t = Instant::now();
        self.wal
            .append(issuance)
            .expect("append to the shadow write-ahead log");
        self.wal_append_us.push(us(t));

        let response = RitmResponse::Delta(issuance.clone());
        let t = Instant::now();
        let frame = response.to_frame();
        self.delta_encode_us.push(us(t));
        let t = Instant::now();
        let (body, _) = ritm_proto::split_frame(&frame).expect("a whole frame");
        black_box(RitmResponse::decode_body(body).expect("a frame just encoded"));
        self.delta_decode_us.push(us(t));
    }
}

/// Fills in the per-layer metrics the shadows of a run measured: the
/// median of each over every traced repetition.
pub fn report(shadows: &[&Shadow], values: &mut Values) {
    type Pick = fn(&Shadow) -> &Samples;
    let metrics: [(&'static str, Pick); 6] = [
        ("dictionary.mirror_apply_us_per_rev", |s| {
            &s.apply_us_per_rev
        }),
        ("dictionary.snapshot_publish_us", |s| &s.snapshot_us),
        ("agent.publish_us", |s| &s.publish_us),
        ("ca.wal_append_us", |s| &s.wal_append_us),
        ("proto.delta_encode_us", |s| &s.delta_encode_us),
        ("proto.delta_decode_us", |s| &s.delta_decode_us),
    ];
    for (name, samples) in metrics {
        let mut all = Samples::default();
        for s in shadows {
            all.extend(samples(s));
        }
        let all = all.sorted();
        values.set(name, all.median(), all.len());
    }
}

impl Drop for Shadow {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.wal_path);
    }
}
