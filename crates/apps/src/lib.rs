//! **enclosure-apps** — the evaluation workloads of the paper's §6,
//! reimplemented in miniature over the simulated substrate.
//!
//! | module | paper workload | experiment |
//! |---|---|---|
//! | [`bild`] | the bild parallel image-processing package (166K LOC, §6.2) | Table 2 row 1 |
//! | [`httpd`] | Go `net/http` static server with an enclosed handler | Table 2 row 2 |
//! | [`fasthttp`] | FastHTTP enclosed server + trusted handler over channels | Table 2 row 3 |
//! | [`mux`], [`pq`], [`wiki`] | the wiki web app of Figure 5 (§6.3) | usability study |
//! | [`plotlib`] | matplotlib-style plotting of secret data (§6.4) | Python experiments |
//! | [`malware`] | re-created malicious packages (§6.5) | security evaluation |
//! | [`django`] | malicious Django clone + secured callbacks (§6.5) | security evaluation |
//! | [`registry`] | GitHub metadata for the Table 2 info columns | TCB accounting |
//!
//! Each workload builds a complete simulated program (packages, dependence
//! graph, enclosures) through the Go or Python frontend, exercises it, and
//! reports simulated-time results the benchmark harness collects.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bild;
pub mod chaos;
mod client;
pub mod django;
pub mod fasthttp;
pub mod httpd;
pub mod malware;
pub mod mux;
pub mod plotlib;
pub mod pq;
pub mod registry;
pub mod wiki;
