package analysis

// BatchAnalyze exposes the test-only batch oracle to the external
// analysis_test package, whose equivalence tests drive whole simulated flows
// through dataset (which imports analysis, so package analysis itself cannot
// import it).
var BatchAnalyze = batchAnalyze
