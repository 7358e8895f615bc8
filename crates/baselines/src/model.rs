//! The analytic comparison model behind Table IV of the paper.
//!
//! For each revocation mechanism, assuming full deployment, the table gives
//! the storage and the number of connections required so that an arbitrary
//! client can establish a secure connection to an arbitrary server, plus
//! which desired properties the mechanism violates.

/// Deployment scale parameters (`ns, nca, nra, ncl, nrev` in the paper,
/// with `nca ≪ nra < ns ≪ ncl`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deployment {
    /// Number of TLS servers.
    pub servers: u64,
    /// Number of CAs.
    pub cas: u64,
    /// Number of RAs.
    pub ras: u64,
    /// Number of clients.
    pub clients: u64,
    /// Number of revocations.
    pub revocations: u64,
}

impl Deployment {
    /// The paper-scale default: today's web PKI with RITM's conservative
    /// RA density (10 clients per RA).
    pub fn paper_scale() -> Self {
        Deployment {
            servers: 50_000_000,
            cas: 254,
            ras: 230_000_000,
            clients: 2_300_000_000,
            revocations: 1_381_992,
        }
    }

    /// Sanity predicate from the table caption: `nca ≪ nra < ns ≪ ncl` is
    /// relaxed here to the orderings that the formulas rely on.
    #[cfg(test)]
    fn is_plausible(&self) -> bool {
        self.cas < self.ras && self.cas < self.servers && self.servers < self.clients
    }
}

/// Storage and connection counts for one scheme (Table IV columns).
/// Units: revocation entries for storage, connections for conn counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overhead {
    /// Total replicated revocation entries across the system.
    pub storage_global: u128,
    /// Entries each client must store.
    pub storage_client: u64,
    /// Total connections to propagate state system-wide.
    pub connections_global: u128,
    /// Connections each client must make.
    pub connections_client: u64,
}

/// The desired properties of §II (Table IV legend).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Properties {
    /// I: near-instant revocation.
    pub near_instant: bool,
    /// P: privacy.
    pub privacy: bool,
    /// E: efficiency and scalability.
    pub efficiency: bool,
    /// T: transparency and accountability.
    pub transparency: bool,
    /// S: server changes not required.
    pub no_server_changes: bool,
}

impl Properties {
    /// The Table IV "violated properties" string, e.g. `"I, P, E, T"`.
    pub fn violated(&self) -> String {
        let mut v = Vec::new();
        if !self.near_instant {
            v.push("I");
        }
        if !self.privacy {
            v.push("P");
        }
        if !self.efficiency {
            v.push("E");
        }
        if !self.no_server_changes {
            v.push("S");
        }
        if !self.transparency {
            v.push("T");
        }
        if v.is_empty() {
            "-".to_owned()
        } else {
            v.join(", ")
        }
    }
}

/// The schemes compared in Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Certificate Revocation Lists.
    Crl,
    /// Browser-pushed partial CRLs (CRLSet/OneCRL).
    CrlSet,
    /// Online Certificate Status Protocol.
    Ocsp,
    /// OCSP stapling.
    OcspStapling,
    /// Log-based, client-driven deployment.
    LogClientDriven,
    /// Log-based, server-driven deployment.
    LogServerDriven,
    /// RevCast FM-radio broadcast.
    RevCast,
    /// This paper.
    Ritm,
}

/// All schemes in the row order of Table IV.
pub const ALL_SCHEMES: [Scheme; 8] = [
    Scheme::Crl,
    Scheme::CrlSet,
    Scheme::Ocsp,
    Scheme::OcspStapling,
    Scheme::LogClientDriven,
    Scheme::LogServerDriven,
    Scheme::RevCast,
    Scheme::Ritm,
];

impl Scheme {
    /// Row label.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Crl => "CRL",
            Scheme::CrlSet => "CRLSet",
            Scheme::Ocsp => "OCSP",
            Scheme::OcspStapling => "OCSP Stapling",
            Scheme::LogClientDriven => "Log (client-driven)",
            Scheme::LogServerDriven => "Log (server-driven)",
            Scheme::RevCast => "RevCast",
            Scheme::Ritm => "RITM",
        }
    }

    /// The Table IV overhead formulas.
    pub fn overhead(&self, d: &Deployment) -> Overhead {
        let nrev = d.revocations as u128;
        let ncl = d.clients as u128;
        let ns = d.servers as u128;
        let nca = d.cas as u128;
        let nra = d.ras as u128;
        match self {
            // Every client holds the CRL and contacts every CA.
            Scheme::Crl => Overhead {
                storage_global: nrev * (ncl + 1),
                storage_client: d.revocations,
                connections_global: ncl * nca,
                connections_client: d.cas,
            },
            // Pushed by one vendor: a single connection per client.
            Scheme::CrlSet => Overhead {
                storage_global: nrev * (ncl + 1),
                storage_client: d.revocations,
                connections_global: ncl,
                connections_client: 1,
            },
            Scheme::Ocsp => Overhead {
                storage_global: nrev,
                storage_client: 0,
                connections_global: ncl * ns,
                connections_client: d.servers,
            },
            Scheme::OcspStapling => Overhead {
                storage_global: nrev + ns,
                storage_client: 0,
                connections_global: ns,
                connections_client: 0,
            },
            Scheme::LogClientDriven => Overhead {
                storage_global: nrev,
                storage_client: 0,
                connections_global: ncl * ns,
                connections_client: d.servers,
            },
            Scheme::LogServerDriven => Overhead {
                storage_global: nrev,
                storage_client: 0,
                connections_global: ns,
                connections_client: 0,
            },
            Scheme::RevCast => Overhead {
                storage_global: nrev * (ncl + 1),
                storage_client: d.revocations,
                connections_global: ncl,
                connections_client: d.revocations,
            },
            Scheme::Ritm => Overhead {
                storage_global: nrev * (nra + 1),
                storage_client: 0,
                connections_global: nca,
                connections_client: 0,
            },
        }
    }

    /// The Table IV property matrix.
    pub fn properties(&self) -> Properties {
        match self {
            Scheme::Crl => Properties {
                near_instant: false,
                privacy: false,
                efficiency: false,
                transparency: false,
                no_server_changes: true,
            },
            Scheme::CrlSet => Properties {
                near_instant: false,
                privacy: true,
                efficiency: false,
                transparency: false,
                no_server_changes: true,
            },
            Scheme::Ocsp => Properties {
                near_instant: false,
                privacy: false,
                efficiency: false,
                transparency: false,
                no_server_changes: true,
            },
            Scheme::OcspStapling => Properties {
                near_instant: false,
                privacy: true,
                efficiency: true,
                transparency: false,
                no_server_changes: false,
            },
            Scheme::LogClientDriven => Properties {
                near_instant: false,
                privacy: false,
                efficiency: false,
                transparency: true,
                no_server_changes: true,
            },
            Scheme::LogServerDriven => Properties {
                near_instant: false,
                privacy: true,
                efficiency: true,
                transparency: true,
                no_server_changes: false,
            },
            Scheme::RevCast => Properties {
                near_instant: true,
                privacy: true,
                efficiency: false,
                transparency: false,
                no_server_changes: true,
            },
            Scheme::Ritm => Properties {
                near_instant: true,
                privacy: true,
                efficiency: true,
                transparency: true,
                no_server_changes: true,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_is_plausible() {
        assert!(Deployment::paper_scale().is_plausible());
    }

    #[test]
    fn ritm_violates_nothing() {
        assert_eq!(Scheme::Ritm.properties().violated(), "-");
    }

    #[test]
    fn violated_strings_match_table_iv() {
        assert_eq!(Scheme::Crl.properties().violated(), "I, P, E, T");
        assert_eq!(Scheme::CrlSet.properties().violated(), "I, E, T");
        assert_eq!(Scheme::Ocsp.properties().violated(), "I, P, E, T");
        assert_eq!(Scheme::OcspStapling.properties().violated(), "I, S, T");
        assert_eq!(Scheme::LogClientDriven.properties().violated(), "I, P, E");
        assert_eq!(Scheme::LogServerDriven.properties().violated(), "I, S");
        assert_eq!(Scheme::RevCast.properties().violated(), "E, T");
    }

    #[test]
    fn clients_store_nothing_under_ritm() {
        let d = Deployment::paper_scale();
        let o = Scheme::Ritm.overhead(&d);
        assert_eq!(o.storage_client, 0);
        assert_eq!(o.connections_client, 0);
        assert_eq!(o.connections_global, d.cas as u128);
    }

    #[test]
    fn ritm_global_storage_scales_with_ras_not_clients() {
        let d = Deployment::paper_scale();
        let ritm = Scheme::Ritm.overhead(&d);
        let crl = Scheme::Crl.overhead(&d);
        // nra < ncl, so RITM replicates strictly less than CRL.
        assert!(ritm.storage_global < crl.storage_global);
    }

    #[test]
    fn ocsp_connection_explosion() {
        let d = Deployment::paper_scale();
        let o = Scheme::Ocsp.overhead(&d);
        assert_eq!(o.connections_global, d.clients as u128 * d.servers as u128);
        // RITM's global connection count is trivially small by comparison.
        assert!(Scheme::Ritm.overhead(&d).connections_global < 1_000);
    }

    #[test]
    fn all_schemes_enumerated_once() {
        use std::collections::HashSet;
        let set: HashSet<_> = ALL_SCHEMES.iter().collect();
        assert_eq!(set.len(), 8);
    }
}
