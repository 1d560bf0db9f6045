package dist

import (
	"fmt"
	"sync"

	"yafim/internal/mapreduce"
)

// JobType binds a job-type name to the factories that build its map/reduce
// closures from the job's parameter blob. Both executors instantiate tasks
// through the registry: Local feeds the factories into the sim engine, and
// every worker process resolves the leased task's Type the same way — which
// is how a master can describe work to another process without shipping
// code.
type JobType struct {
	// NewMapper builds a fresh mapper per map task.
	NewMapper func(params []byte) (mapreduce.Mapper, error)
	// NewCombiner builds the optional map-side combiner (nil disables).
	NewCombiner func(params []byte) (mapreduce.Reducer, error)
	// NewReducer builds a fresh reducer per reduce task.
	NewReducer func(params []byte) (mapreduce.Reducer, error)
}

var (
	regMu    sync.RWMutex
	jobTypes = map[string]JobType{}
)

// RegisterJobType makes a job type available to both executors under name.
// Registration typically happens from the algorithm package's Register
// function, called by drivers and worker mains alike. Re-registering a name
// panics: two meanings for one wire name would make results depend on
// process identity.
func RegisterJobType(name string, jt JobType) {
	if name == "" || jt.NewMapper == nil || jt.NewReducer == nil {
		panic("dist: RegisterJobType needs a name, a mapper and a reducer")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, ok := jobTypes[name]; ok {
		panic(fmt.Sprintf("dist: job type %q registered twice", name))
	}
	jobTypes[name] = jt
}

// lookupJobType resolves a registered job type.
func lookupJobType(name string) (JobType, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	jt, ok := jobTypes[name]
	if !ok {
		return JobType{}, fmt.Errorf("dist: unknown job type %q (not registered in this process)", name)
	}
	return jt, nil
}
