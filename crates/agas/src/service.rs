//! The AGAS resolution service.
//!
//! One `AgasService` is shared by every locality in the in-process cluster
//! (in HPX, locality 0 hosts the root AGAS service and others cache; since
//! our localities share an address space we keep one authoritative table
//! and model the *cost* of resolution inside the parcel path's background
//! work instead).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::gid::{Gid, GidAllocator};

/// Errors returned by AGAS operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AgasError {
    /// The GID is not bound to any locality.
    UnknownGid(Gid),
    /// The symbolic name is not registered.
    UnknownSymbol(String),
    /// The symbolic name is already registered.
    SymbolExists(String),
    /// The GID is the invalid sentinel.
    InvalidGid,
}

impl fmt::Display for AgasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgasError::UnknownGid(g) => write!(f, "GID {g} is not bound"),
            AgasError::UnknownSymbol(s) => write!(f, "symbol '{s}' is not registered"),
            AgasError::SymbolExists(s) => write!(f, "symbol '{s}' is already registered"),
            AgasError::InvalidGid => write!(f, "the invalid GID cannot be used"),
        }
    }
}

impl std::error::Error for AgasError {}

struct Tables {
    /// GID → current locality.
    bindings: HashMap<Gid, u32>,
    /// Symbolic name → GID.
    symbols: HashMap<String, Gid>,
}

/// The global address space service shared by all localities.
pub struct AgasService {
    num_localities: u32,
    allocators: Vec<GidAllocator>,
    tables: RwLock<Tables>,
}

impl AgasService {
    /// Create the service for a cluster of `num_localities` localities.
    pub fn new(num_localities: u32) -> Arc<Self> {
        assert!(num_localities > 0, "cluster needs at least one locality");
        Arc::new(AgasService {
            num_localities,
            allocators: (0..num_localities).map(GidAllocator::new).collect(),
            tables: RwLock::new(Tables {
                bindings: HashMap::new(),
                symbols: HashMap::new(),
            }),
        })
    }

    /// Number of localities in the cluster.
    pub fn num_localities(&self) -> u32 {
        self.num_localities
    }

    /// Allocate a GID born on `locality` and bind it there.
    ///
    /// # Panics
    /// Panics if `locality` is out of range.
    pub fn allocate(&self, locality: u32) -> Gid {
        let gid = self.allocate_unbound(locality);
        self.tables.write().bindings.insert(gid, locality);
        gid
    }

    /// Allocate a GID born on `locality` without binding it, for names
    /// nothing resolves (a continuation LCO lives only in its birth
    /// locality's LCO table). Takes no lock and leaves no binding behind.
    ///
    /// # Panics
    /// Panics if `locality` is out of range.
    pub fn allocate_unbound(&self, locality: u32) -> Gid {
        self.allocators[locality as usize].allocate()
    }

    /// Resolve the current locality of `gid`.
    pub fn resolve(&self, gid: Gid) -> Result<u32, AgasError> {
        if !gid.is_valid() {
            return Err(AgasError::InvalidGid);
        }
        self.tables
            .read()
            .bindings
            .get(&gid)
            .copied()
            .ok_or(AgasError::UnknownGid(gid))
    }

    /// Move a binding to a new locality (explicit re-homing).
    pub fn rebind(&self, gid: Gid, locality: u32) -> Result<(), AgasError> {
        assert!(locality < self.num_localities, "locality out of range");
        let mut tables = self.tables.write();
        match tables.bindings.get_mut(&gid) {
            Some(loc) => {
                *loc = locality;
                Ok(())
            }
            None => Err(AgasError::UnknownGid(gid)),
        }
    }

    /// Remove a binding (object destroyed). Also drops any symbols that
    /// pointed at it.
    pub fn unbind(&self, gid: Gid) -> Result<(), AgasError> {
        let mut tables = self.tables.write();
        if tables.bindings.remove(&gid).is_none() {
            return Err(AgasError::UnknownGid(gid));
        }
        tables.symbols.retain(|_, g| *g != gid);
        Ok(())
    }

    /// Register a symbolic name for a GID.
    pub fn register_symbol(&self, name: &str, gid: Gid) -> Result<(), AgasError> {
        if !gid.is_valid() {
            return Err(AgasError::InvalidGid);
        }
        let mut tables = self.tables.write();
        if tables.symbols.contains_key(name) {
            return Err(AgasError::SymbolExists(name.to_string()));
        }
        tables.symbols.insert(name.to_string(), gid);
        Ok(())
    }

    /// Look up a symbolic name.
    pub fn resolve_symbol(&self, name: &str) -> Result<Gid, AgasError> {
        self.tables
            .read()
            .symbols
            .get(name)
            .copied()
            .ok_or_else(|| AgasError::UnknownSymbol(name.to_string()))
    }

    /// Number of live bindings (for diagnostics/tests).
    pub fn bound_count(&self) -> usize {
        self.tables.read().bindings.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_unbound_is_unique_and_leaves_no_binding() {
        let agas = AgasService::new(2);
        let bound = agas.allocate(1);
        let a = agas.allocate_unbound(1);
        let b = agas.allocate_unbound(1);
        assert!(a != b && a != bound && a.birth_locality() == 1);
        assert_eq!(agas.bound_count(), 1);
        assert_eq!(agas.resolve(a), Err(AgasError::UnknownGid(a)));
    }

    #[test]
    fn allocate_binds_to_birth_locality() {
        let agas = AgasService::new(4);
        let g = agas.allocate(2);
        assert_eq!(agas.resolve(g), Ok(2));
        assert_eq!(g.birth_locality(), 2);
        assert_eq!(agas.bound_count(), 1);
    }

    #[test]
    fn rebind_moves_resolution_but_keeps_gid() {
        let agas = AgasService::new(4);
        let g = agas.allocate(0);
        agas.rebind(g, 3).unwrap();
        assert_eq!(agas.resolve(g), Ok(3));
        // Birth locality is unchanged — the GID is stable across moves,
        // which is the AGAS property the paper highlights.
        assert_eq!(g.birth_locality(), 0);
    }

    #[test]
    fn unbind_removes_binding_and_symbols() {
        let agas = AgasService::new(2);
        let g = agas.allocate(1);
        agas.register_symbol("obj", g).unwrap();
        agas.unbind(g).unwrap();
        assert_eq!(agas.resolve(g), Err(AgasError::UnknownGid(g)));
        assert!(matches!(
            agas.resolve_symbol("obj"),
            Err(AgasError::UnknownSymbol(_))
        ));
        assert_eq!(agas.unbind(g), Err(AgasError::UnknownGid(g)));
    }

    #[test]
    fn symbols_resolve_and_reject_duplicates() {
        let agas = AgasService::new(2);
        let g1 = agas.allocate(0);
        let g2 = agas.allocate(1);
        agas.register_symbol("root", g1).unwrap();
        assert_eq!(agas.resolve_symbol("root"), Ok(g1));
        assert_eq!(
            agas.register_symbol("root", g2),
            Err(AgasError::SymbolExists("root".into()))
        );
    }

    #[test]
    fn invalid_gid_is_rejected() {
        let agas = AgasService::new(1);
        assert_eq!(agas.resolve(Gid::INVALID), Err(AgasError::InvalidGid));
        assert_eq!(
            agas.register_symbol("x", Gid::INVALID),
            Err(AgasError::InvalidGid)
        );
    }

    #[test]
    fn unknown_gid_resolution_fails() {
        let agas = AgasService::new(1);
        let foreign = Gid::from_parts(0, 999);
        assert_eq!(agas.resolve(foreign), Err(AgasError::UnknownGid(foreign)));
    }

    #[test]
    fn concurrent_allocation_is_consistent() {
        let agas = AgasService::new(4);
        std::thread::scope(|s| {
            for loc in 0..4u32 {
                let agas = &agas;
                s.spawn(move || {
                    for _ in 0..500 {
                        let g = agas.allocate(loc);
                        assert_eq!(agas.resolve(g), Ok(loc));
                    }
                });
            }
        });
        assert_eq!(agas.bound_count(), 2000);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rebind_out_of_range_panics() {
        let agas = AgasService::new(2);
        let g = agas.allocate(0);
        let _ = agas.rebind(g, 5);
    }
}
