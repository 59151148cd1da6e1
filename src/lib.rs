//! # mira — facade crate for the Mira reproduction workspace
//!
//! Re-exports the sub-crates of the workspace so downstream users (and the
//! examples/integration tests in this repository) can depend on one crate:
//!
//! * [`arch`] — the 64-category instruction taxonomy and machine model;
//! * [`minic`] — the MiniC front-end (lexer, parser, sema, source AST);
//! * [`isa`] — the VX86 instruction set (encode/decode, categories);
//! * [`vobj`] — the in-memory VOBJ object, line tables, disassembler and
//!   basic-block boundary analysis;
//! * [`vcc`] — the MiniC → VX86 compiler (optionally vectorizing);
//! * [`sym`] — exact rational symbolic polynomials;
//! * [`poly`] — parametric polyhedral counting;
//! * [`model`] — generated performance models (incl. Python emission);
//! * [`pbound`] — the source-only baseline analyzer;
//! * [`vm`] — the instrumented VX86 interpreter (TAU/PAPI stand-in);
//! * [`mem`] — static memory-traffic models (bytes, distinct cache
//!   lines) and the VM cache simulator for bytes-based roofline work;
//! * [`core`] — the end-to-end static analysis pipeline;
//! * [`workloads`] — STREAM / DGEMM / miniFE and the survey corpus.

pub use mira_arch as arch;
pub use mira_core as core;
pub use mira_isa as isa;
pub use mira_mem as mem;
pub use mira_minic as minic;
pub use mira_model as model;
pub use mira_poly as poly;
pub use mira_pbound as pbound;
pub use mira_sym as sym;
pub use mira_vcc as vcc;
pub use mira_vm as vm;
pub use mira_vobj as vobj;
pub use mira_workloads as workloads;
