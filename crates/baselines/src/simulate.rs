//! Behavioural models of the baseline schemes: attack windows,
//! per-handshake costs, and dissemination capacity.
//!
//! These drive the comparison benches (attack-window and handshake-overhead
//! sweeps) that back §II's criticism of each scheme and §V's "effectively,
//! the attack window is 2Δ" claim for RITM.

/// Parameters of each scheme that determine its revocation attack window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchemeParams {
    /// CRLs refetched when `next_update_secs` elapses.
    Crl {
        /// CRL publication period.
        next_update_secs: u64,
        /// Entries on the list (drives download size).
        entries: u64,
    },
    /// OCSP responses cached for `response_validity_secs`.
    Ocsp {
        /// Validity of a response.
        response_validity_secs: u64,
    },
    /// Stapled responses refreshed by the server every `staple_age_secs` —
    /// a *server-controlled* parameter (the §II complaint: a compromised
    /// server maximizes it).
    OcspStapling {
        /// Maximum stapled-response age the server config allows.
        staple_age_secs: u64,
    },
    /// Vendor-pushed list updated with software updates.
    CrlSet {
        /// Update push period.
        push_period_secs: u64,
        /// Fraction of all revocations covered (0.35 % reported).
        coverage: f64,
    },
    /// Short-lived certificates: irrevocable for their lifetime.
    ShortLived {
        /// Certificate lifetime.
        lifetime_secs: u64,
    },
    /// RevCast FM broadcast at 421.8 bit/s.
    RevCast {
        /// Broadcast bandwidth in bits/second (421.8 in the paper).
        bandwidth_bps: f64,
        /// Bits per revocation entry on air.
        entry_bits: u64,
    },
    /// Log-based schemes with a maximum-merge-delay.
    LogBased {
        /// Log update (merge) period.
        merge_delay_secs: u64,
    },
    /// RITM with dissemination period Δ.
    Ritm {
        /// Δ in seconds.
        delta_secs: u64,
    },
}

impl SchemeParams {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SchemeParams::Crl { .. } => "CRL",
            SchemeParams::Ocsp { .. } => "OCSP",
            SchemeParams::OcspStapling { .. } => "OCSP Stapling",
            SchemeParams::CrlSet { .. } => "CRLSet",
            SchemeParams::ShortLived { .. } => "Short-Lived Certs",
            SchemeParams::RevCast { .. } => "RevCast",
            SchemeParams::LogBased { .. } => "Log-based",
            SchemeParams::Ritm { .. } => "RITM",
        }
    }

    /// Worst-case window (seconds) during which a client accepts a
    /// certificate that has already been revoked.
    pub fn attack_window_secs(&self) -> u64 {
        match *self {
            // Client fetched the CRL just before the revocation: exposed
            // until the *next* publication plus the fetch.
            SchemeParams::Crl {
                next_update_secs, ..
            } => next_update_secs,
            SchemeParams::Ocsp {
                response_validity_secs,
            } => response_validity_secs,
            SchemeParams::OcspStapling { staple_age_secs } => staple_age_secs,
            SchemeParams::CrlSet {
                push_period_secs, ..
            } => push_period_secs,
            SchemeParams::ShortLived { lifetime_secs } => lifetime_secs,
            // Broadcast reception is near-immediate once on air.
            SchemeParams::RevCast { .. } => 60,
            SchemeParams::LogBased { merge_delay_secs } => merge_delay_secs,
            // §V: publish/poll skew tolerance makes it exactly 2Δ.
            SchemeParams::Ritm { delta_secs } => 2 * delta_secs,
        }
    }

    /// Probability that a given revocation is visible to clients at all
    /// (CRLSet covers only a sliver; everything else is complete).
    pub fn revocation_coverage(&self) -> f64 {
        match *self {
            SchemeParams::CrlSet { coverage, .. } => coverage,
            _ => 1.0,
        }
    }

    /// Extra bytes a client must download *during connection establishment*
    /// to learn the revocation status (0 when the scheme pushes data out of
    /// band or staples it).
    #[cfg(test)]
    fn handshake_extra_bytes(&self, crl_entry_bytes: u64) -> u64 {
        match *self {
            SchemeParams::Crl { entries, .. } => entries * crl_entry_bytes,
            // One OCSP response.
            SchemeParams::Ocsp { .. } => 1_500,
            SchemeParams::OcspStapling { .. } => 0,
            SchemeParams::CrlSet { .. } => 0,
            SchemeParams::ShortLived { .. } => 0,
            SchemeParams::RevCast { .. } => 0,
            // SCT/validity proof fetched from a log.
            SchemeParams::LogBased { .. } => 1_200,
            // The piggybacked status rides existing packets; no extra
            // *connection*, and 500–900 bytes of payload (§VII-D).
            SchemeParams::Ritm { .. } => 0,
        }
    }

    /// Extra *round trips to a third party* during the handshake (the
    /// latency- and privacy-relevant count).
    pub fn extra_connections(&self) -> u32 {
        match self {
            SchemeParams::Crl { .. } => 1,
            SchemeParams::Ocsp { .. } => 1,
            SchemeParams::LogBased { .. } => 1, // client-driven variant
            _ => 0,
        }
    }

    /// Whether a third party learns which server the client visits.
    pub fn leaks_browsing_target(&self) -> bool {
        matches!(
            self,
            SchemeParams::Crl { .. } | SchemeParams::Ocsp { .. } | SchemeParams::LogBased { .. }
        )
    }
}

/// Time for RevCast to broadcast `revocations` entries — its §II bottleneck
/// (421.8 bit/s cannot absorb a Heartbleed event quickly).
pub fn revcast_dissemination_secs(bandwidth_bps: f64, entry_bits: u64, revocations: u64) -> f64 {
    (revocations * entry_bits) as f64 / bandwidth_bps
}

/// Time for RITM to disseminate a batch: one Δ for the pull cycle plus the
/// CDN download (seconds); `download_secs` comes from the Fig. 5 model.
pub fn ritm_dissemination_secs(delta_secs: u64, download_secs: f64) -> f64 {
    delta_secs as f64 + download_secs
}

/// The default parameterization used by the comparison experiments,
/// matching the numbers quoted in §II.
pub fn default_params(ritm_delta: u64) -> Vec<SchemeParams> {
    vec![
        SchemeParams::Crl {
            next_update_secs: 7 * 86_400,
            entries: 339_557,
        },
        SchemeParams::Ocsp {
            response_validity_secs: 4 * 86_400,
        },
        SchemeParams::OcspStapling {
            staple_age_secs: 7 * 86_400,
        },
        SchemeParams::CrlSet {
            push_period_secs: 42 * 86_400,
            coverage: 0.0035,
        },
        SchemeParams::ShortLived {
            lifetime_secs: 4 * 86_400,
        },
        SchemeParams::RevCast {
            bandwidth_bps: 421.8,
            entry_bits: 21 * 8,
        },
        SchemeParams::LogBased {
            merge_delay_secs: 12 * 3_600,
        },
        SchemeParams::Ritm {
            delta_secs: ritm_delta,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ritm_window_is_two_delta() {
        assert_eq!(
            SchemeParams::Ritm { delta_secs: 10 }.attack_window_secs(),
            20
        );
        assert_eq!(
            SchemeParams::Ritm { delta_secs: 86_400 }.attack_window_secs(),
            172_800
        );
    }

    #[test]
    fn ritm_has_smallest_window_at_small_delta() {
        let ritm = SchemeParams::Ritm { delta_secs: 10 };
        for p in default_params(10) {
            if p != ritm {
                assert!(
                    p.attack_window_secs() >= ritm.attack_window_secs(),
                    "{} window smaller than RITM's",
                    p.name()
                );
            }
        }
    }

    #[test]
    fn revcast_chokes_on_heartbleed() {
        // ~40k revocations on the peak Heartbleed day (Fig. 4) at
        // 421.8 bit/s with 21-byte entries takes hours — versus seconds for
        // RITM (one Δ plus a sub-second CDN pull).
        let secs = revcast_dissemination_secs(421.8, 21 * 8, 40_000);
        assert!(
            secs / 3600.0 > 3.0 && secs / 3600.0 < 8.0,
            "{} h",
            secs / 3600.0
        );
        let ritm = ritm_dissemination_secs(10, 0.5);
        assert!(ritm < 15.0);
        assert!(secs / ritm > 1_000.0, "RITM is orders of magnitude faster");
    }

    #[test]
    fn crl_download_is_megabytes() {
        let crl = SchemeParams::Crl {
            next_update_secs: 86_400,
            entries: 339_557,
        };
        // ~22 bytes per DER CRL entry → ~7.5 MB, the paper's largest CRL.
        let bytes = crl.handshake_extra_bytes(22);
        assert!(bytes > 7_000_000, "got {bytes}");
        assert_eq!(
            SchemeParams::Ritm { delta_secs: 10 }.handshake_extra_bytes(22),
            0
        );
    }

    #[test]
    fn privacy_leaks_match_section_ii() {
        assert!(SchemeParams::Ocsp {
            response_validity_secs: 1
        }
        .leaks_browsing_target());
        assert!(SchemeParams::Crl {
            next_update_secs: 1,
            entries: 1
        }
        .leaks_browsing_target());
        assert!(!SchemeParams::Ritm { delta_secs: 1 }.leaks_browsing_target());
        assert!(!SchemeParams::OcspStapling { staple_age_secs: 1 }.leaks_browsing_target());
    }

    #[test]
    fn crlset_coverage_is_partial() {
        let p = SchemeParams::CrlSet {
            push_period_secs: 1,
            coverage: 0.0035,
        };
        assert!(p.revocation_coverage() < 0.01);
        assert_eq!(
            SchemeParams::Ritm { delta_secs: 1 }.revocation_coverage(),
            1.0
        );
    }

    #[test]
    fn server_controlled_staple_age_grows_window() {
        let honest = SchemeParams::OcspStapling {
            staple_age_secs: 86_400,
        };
        let compromised = SchemeParams::OcspStapling {
            staple_age_secs: 30 * 86_400,
        };
        assert!(compromised.attack_window_secs() > honest.attack_window_secs() * 20);
    }
}
