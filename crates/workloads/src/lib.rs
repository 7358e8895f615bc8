//! # ritm-workloads — dataset synthesizers for the evaluation (§VII)
//!
//! Substitutes for the paper's proprietary/unavailable inputs, each pinned
//! to the published aggregates (README, "Substitutions"):
//!
//! * [`isc`] — the Internet Storm Center CRL dataset (254 CRLs, 1,381,992
//!   revocations, largest 339,557 entries / 7.5 MB);
//! * [`heartbleed`] — the Fig. 4 revocation time series with the April 2014
//!   spike;
//! * [`cities`] — the MaxMind city-population RA placement (47,980 cities,
//!   2.3 B people);
//! * [`planetlab`] — 80 vantage points for the Fig. 5 download CDFs;
//! * [`serials`] — serial numbers with the observed 3-byte mode (32 %).

pub mod cities;
pub mod heartbleed;
pub mod isc;
pub mod planetlab;
pub mod serials;

pub use cities::CityModel;
pub use heartbleed::Bin;
pub use isc::IscDataset;
pub use planetlab::{vantage_points, VantagePoint, FIG5_MESSAGE_SIZES};
