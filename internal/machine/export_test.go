package machine

// SelectVisits exposes the issue-selection work counter to the external test
// package (oracle_test.go), which can build the PBBS kernels.
func SelectVisits(m *Machine) int64 { return m.selVisits }
