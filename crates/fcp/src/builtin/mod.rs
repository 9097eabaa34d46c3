//! The built-in pattern palette.
//!
//! The Fig. 6 palette of the paper plus the graph-level configuration
//! patterns §2.2 sketches:
//!
//! | FCP | related quality attribute | point |
//! |-----|---------------------------|-------|
//! | [`RemoveDuplicateEntries`] | data quality | edge |
//! | [`FilterNullValues`] | data quality | edge |
//! | [`CrosscheckSources`] | data quality | edge |
//! | [`ParallelizeTask`] | performance | node |
//! | [`AddCheckpoint`] | reliability | edge |
//! | [`EncryptChannels`] | security | graph |
//! | [`EnableAccessControl`] | security | graph |
//! | [`UpgradeResources`] | performance | graph |
//! | [`IncreaseRecurrence`] | data quality (freshness) | graph |

/// The `Arc<str>` of a constant name, built once per process: each use
/// clones the `Arc` instead of allocating the name again, so the
/// operations every application adds share their names and tags.
macro_rules! shared_name {
    ($name:expr) => {{
        static SHARED: std::sync::LazyLock<std::sync::Arc<str>> =
            std::sync::LazyLock::new(|| std::sync::Arc::from($name));
        std::sync::Arc::clone(&SHARED)
    }};
}

mod checkpoint;
mod cleaning;
mod graphconf;
mod parallelize;

pub use checkpoint::AddCheckpoint;
pub use cleaning::{CrosscheckSources, FilterNullValues, RemoveDuplicateEntries};
pub use graphconf::{EnableAccessControl, EncryptChannels, IncreaseRecurrence, UpgradeResources};
pub use parallelize::ParallelizeTask;
