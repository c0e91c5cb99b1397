//! `nsms` — concrete Naming Semantics Managers and the HCS testbed.
//!
//! "Each NSM understands the semantics of naming for a particular query
//! class and a particular name service." The crate provides the paper's
//! binding NSMs for BIND and the Clearinghouse (§3, "about 230 lines
//! each"), host-address NSMs (linked with every HNS to break `FindNSM`
//! recursion), the mail and file extension NSMs (§5), the NSM-side result
//! cache, the `Import` operation, and [`harness::Testbed`] — the full
//! simulated HCS environment used by examples, integration tests, and the
//! experiment harness.
#![warn(missing_docs)]

pub mod binding_bind;
pub mod binding_ch;
pub mod file_loc;
pub mod harness;
pub mod hostaddr;
pub mod import;
pub mod mail;
pub mod nsm_cache;
pub mod user_info;

pub use binding_bind::BindingBindNsm;
pub use binding_ch::BindingChNsm;
pub use harness::{DeployedBindingNsms, Hosts, Testbed};
pub use hostaddr::{HostAddrBindNsm, HostAddrChNsm};
pub use import::Importer;
