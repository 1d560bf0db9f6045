package dist

import (
	"fmt"
	"sync"

	"yafim/internal/mapreduce"
)

// JobType builds one job's tasks from its parameter blob and the contents
// of its distributed-cache files. Both executors resolve a job's Type
// through the registry and build it once per job: Local per ExecJob, a
// worker process at its first task of each job. That is how a master
// describes work to another process without shipping code, and how the
// parsing a job needs (candidate files into hash trees) is done once per
// job rather than once per task.
type JobType func(params []byte, cache mapreduce.CacheFiles) (mapreduce.Tasks, error)

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
	if name == "" || jt == nil {
		panic("dist: RegisterJobType needs a name and a builder")
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
		return nil, fmt.Errorf("unknown job type %q (not registered in this process)", name)
	}
	return jt, nil
}

// buildJob builds the tasks of one job of the registered type name.
func buildJob(name string, params []byte, cache mapreduce.CacheFiles) (mapreduce.Tasks, error) {
	jt, err := lookupJobType(name)
	if err != nil {
		return mapreduce.Tasks{}, err
	}
	return jt(params, cache)
}
