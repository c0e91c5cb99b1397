//! The NSM result cache's storage form, under its original path.
//!
//! The binding NSMs cache completed bindings in an
//! [`HnsCache`](hns_core::cache::HnsCache), the HNS's own form-storing
//! layer; its mode is the HNS [`CacheMode`](hns_core::cache::CacheMode).

/// The storage form of an NSM result cache.
pub use hns_core::cache::CacheMode as NsmCacheForm;
