//! Per-operator trace attribution.

use super::{Batch, Operator};
use crate::error::Result;
use sc_obs::trace::{self, Attr};

/// Wraps an operator so every pull runs inside a trace stage named after
/// the operator. Attribution follows the pull chain:
///
/// * [`Attr::OpRowsOut`] is charged **inside** the operator's own stage —
///   the rows this operator emitted,
/// * [`Attr::OpRowsIn`] is charged **after** the stage closes, so it
///   lands on the innermost still-open stage: the consuming operator's
///   span (or the statement root for the pipeline's output).
///
/// Storage-level attribution (blocks read, cache hits, bloom checks)
/// recorded during the pull nests under the operator's stage
/// automatically, which is what makes per-operator cost visible in
/// `GET /debug/traces`. When no trace is active on the thread the whole
/// wrapper is two relaxed thread-local reads per pull.
pub struct Traced {
    inner: Box<dyn Operator>,
}

impl Traced {
    pub(crate) fn new(inner: Box<dyn Operator>) -> Traced {
        Traced { inner }
    }
}

impl Operator for Traced {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        let batch = {
            let _stage = trace::stage(self.inner.name());
            let batch = self.inner.next_batch()?;
            let rows = batch.as_ref().map_or(0, |b| b.len() as u64);
            trace::add(Attr::OpRowsOut, rows);
            batch
        };
        trace::add(Attr::OpRowsIn, batch.as_ref().map_or(0, Batch::len) as u64);
        Ok(batch)
    }
}
