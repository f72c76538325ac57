//! The single-replica front: [`InferenceService`] is a
//! [`FleetService`] of one replica, with the flat [`ServeReport`] a
//! one-crossbar caller wants. It has no dispatch, maintenance or
//! admission logic of its own — see [`crate::fleet`] for the thread
//! layout and the determinism contract.

use memaging_crossbar::CrossbarNetwork;
use memaging_dataset::Dataset;
use memaging_lifetime::WearLedger;
use memaging_obs::Recorder;

use crate::config::{FleetConfig, ServeConfig};
use crate::error::ServeError;
use crate::fleet::FleetService;
use crate::request::{InferRequest, InferResponse};
use crate::stats::ServeStats;

/// Final report of a shut-down service.
pub struct ServeReport {
    /// The final hardware state (wear, windows, mappings) — the ground
    /// truth the determinism bench asserts on.
    pub network: CrossbarNetwork,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests rejected at admission (queue full).
    pub rejected_full: u64,
    /// Requests expired before dispatch.
    pub expired: u64,
    /// Maintenance boundaries processed.
    pub boundaries: u64,
    /// Aging-triggered live remaps performed.
    pub remaps: u64,
    /// Batches dispatched (a batch serves one or more admitted requests;
    /// under concurrent load this is strictly below `served`).
    pub batches: u64,
    /// The wear-attribution ledger: every unit of tile stress accrued over
    /// the service's lifetime, keyed by cause. Its per-cause totals sum
    /// bit-identically to the `network`'s total stress.
    pub attribution: WearLedger,
}

/// A deployed single-crossbar inference service: a one-replica
/// [`FleetService`]. Create with [`InferenceService::deploy`], stop with
/// [`InferenceService::shutdown`].
pub struct InferenceService {
    fleet: FleetService,
}

impl InferenceService {
    /// Deploys `network` (performing the initial aging-aware mapping
    /// against `calib`) as a one-replica fleet and starts its dispatcher
    /// and maintenance threads.
    ///
    /// # Errors
    ///
    /// As [`FleetService::deploy`].
    pub fn deploy(
        network: CrossbarNetwork,
        calib: Dataset,
        config: ServeConfig,
        recorder: Recorder,
    ) -> Result<InferenceService, ServeError> {
        let fleet =
            FleetService::deploy(vec![network], calib, FleetConfig::new(1, config), recorder)?;
        Ok(InferenceService { fleet })
    }

    /// Submits one request and blocks until it is served, rejected, or
    /// expired.
    ///
    /// # Errors
    ///
    /// As [`FleetService::infer`].
    pub fn infer(&self, request: InferRequest) -> Result<InferResponse, ServeError> {
        self.fleet.infer(request)
    }

    /// Live serving statistics of the one replica.
    pub fn stats(&self) -> &ServeStats {
        self.fleet.replica_stats(0).expect("a one-replica fleet")
    }

    /// The expected number of input features per request.
    pub fn input_dim(&self) -> usize {
        self.fleet.input_dim()
    }

    /// A snapshot of the wear-attribution ledger.
    pub fn wear_attribution(&self) -> WearLedger {
        self.fleet.wear_attribution(0).expect("a one-replica fleet")
    }

    /// Stops admission, drains every queued request (each still receives
    /// its response), flushes the final partial interval's wear, joins
    /// all threads, and returns the final report.
    pub fn shutdown(self) -> ServeReport {
        let report = self.fleet.shutdown();
        let replica = report.replicas.into_iter().next().expect("a one-replica fleet");
        ServeReport {
            network: replica.network,
            admitted: report.admitted,
            served: replica.served,
            rejected_full: report.rejected_full,
            expired: replica.expired,
            boundaries: replica.boundaries,
            remaps: replica.remaps,
            batches: replica.batches,
            attribution: replica.attribution,
        }
    }
}
