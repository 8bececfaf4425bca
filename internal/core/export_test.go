package core

// Exported for the external core_test package, which also imports
// internal/gen (itself an importer of core).
var (
	TrapModule    = trapModule
	CxxTrapModule = cxxTrapModule
	Update        = update
)
