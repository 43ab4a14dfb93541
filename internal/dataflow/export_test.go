package dataflow

// Test-only exports: the string-keyed reference analysis, so external
// property tests that also need the cdg and pdg packages can use it as
// their oracle.
type RefReachingDefs = refReachingDefs

var RefReach = refReach
