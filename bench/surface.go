package main

import (
	"context"
	"io"
	"net/http"

	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/cluster"
	"github.com/isasgd/isasgd/internal/core"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/httpx"
	"github.com/isasgd/isasgd/internal/kernel"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/sampling"
	"github.com/isasgd/isasgd/internal/serve"
	"github.com/isasgd/isasgd/internal/snapshot"
	"github.com/isasgd/isasgd/internal/stream"
	"github.com/isasgd/isasgd/internal/wire32"
	"github.com/isasgd/isasgd/internal/xrand"
)

// The repository's API as the benchmark uses it, each entry with the
// signature it is called through. A refactor that changes one of these
// fails to compile here, in one place, and README.md lists the same
// names; the end-to-end paths use only the entry points the CLIs use.
// The benchmark deliberately imports neither internal/experiments nor
// cmd/*, which later changes will rewrite.
var (
	// dataset: synthesis, the split's row selection, the stream's encoding.
	_ func(dataset.SynthConfig) (*dataset.Dataset, error) = dataset.Synthesize
	_ func(float64, uint64) dataset.SynthConfig           = dataset.KDDALike
	_ func(float64, uint64) dataset.SynthConfig           = dataset.News20Like
	_ func(io.Writer, *dataset.Dataset) error             = dataset.WriteLibSVM
	_ func(*dataset.Dataset, []int) *dataset.Dataset      = (*dataset.Dataset).Reorder
	_ objective.Objective                                 = objective.LogisticL1{}
	_ func(model.Kind, int) model.Params                  = model.New
	_ func(int) *model.Racy                               = model.NewRacy
	_ func(uint64) *xrand.Rand                            = xrand.New
	_ func(int, float64) *xrand.Zipf                      = xrand.NewZipf

	// core: batch_sparse, batch_dense, and the worker-sized engine of cluster_star.
	_ func(*dataset.Dataset, objective.Objective, model.Params, int, core.ISOptions) (*core.Engine, error) = core.NewISASGDOpts
	_ func(*dataset.Dataset, objective.Objective, model.Params, int, uint64) (*core.Engine, error)         = core.NewASGD
	_ func(*core.Engine, float64) int64                                                                    = (*core.Engine).RunEpoch
	_ func(*core.Engine, []float64) []float64                                                              = (*core.Engine).Snapshot
	_ balance.Mode                                                                                         = balance.ForceShuffle

	// stream: stream_e2e end to end (Run) and driven block by block (Next, Ingest).
	_ func(io.Reader, string, int) *stream.Reader                                    = stream.NewReader
	_ func(*stream.Reader) (*stream.Block, error)                                    = (*stream.Reader).Next
	_ func(stream.Config) (*stream.Trainer, error)                                   = stream.NewTrainer
	_ func(*stream.Trainer, context.Context, *stream.Reader) (*stream.Result, error) = (*stream.Trainer).Run
	_ func(*stream.Trainer, *stream.Block) stream.BlockStats                         = (*stream.Trainer).Ingest
	_ func(*stream.Trainer, func(stream.BlockStats))                                 = (*stream.Trainer).SetOnBlock
	_ func(int, int, uint64) *stream.ISState                                         = stream.NewISState
	_ func(*stream.ISState, int64, float64)                                          = (*stream.ISState).Observe
	_ func(*stream.ISState)                                                          = (*stream.ISState).Rebuild
	_ func(*stream.ISState, *xrand.Rand) (stream.Entry, float64, bool)               = (*stream.ISState).Sample

	// sampling and kernel: the isolated replays.
	_ func([]float64) (*sampling.Alias, error)                = sampling.NewAlias
	_ func(int) *sampling.Uniform                             = sampling.NewUniform
	_ func([]int32, sampling.Sampler, *xrand.Rand)            = sampling.SequenceInto
	_ func(model.Params, objective.Objective) kernel.Kernel   = kernel.New
	_ func(model.Params, objective.Objective) kernel.Kernel32 = kernel.New32
	_ kern[float64]                                           = kernel.Kernel(nil)
	_ kern[float32]                                           = kernel.Kernel32(nil)

	// snapshot and wire32: publication, long-poll wake-up, replication's f32 payload.
	_ func() *snapshot.Store                                                         = snapshot.NewStore
	_ func(*snapshot.Store, int, int64, func([]float64) []float64) *snapshot.Version = (*snapshot.Store).Publish
	_ func(*snapshot.Store, int, int64, []float64) *snapshot.Version                 = (*snapshot.Store).PublishCopy
	_ func(*snapshot.Store) *snapshot.Version                                        = (*snapshot.Store).Load
	_ func(*snapshot.Store, context.Context, uint64) *snapshot.Version               = (*snapshot.Store).Wait
	_ func(*snapshot.Store, func(*snapshot.Version))                                 = (*snapshot.Store).SetOnPublish
	_ func(*snapshot.Store, string)                                                  = (*snapshot.Store).SetDType
	_ func([]byte, []float32) []byte                                                 = wire32.AppendNarrow
	_ func([]float64, []byte) ([]float64, error)                                     = wire32.DecodeWide

	// cluster: cluster_star.
	_ func(cluster.CoordinatorConfig) (*cluster.Coordinator, error) = cluster.NewCoordinator
	_ func(*cluster.Coordinator) http.Handler                       = (*cluster.Coordinator).Handler
	_ func(*cluster.Coordinator) <-chan struct{}                    = (*cluster.Coordinator).Done
	_ func(*cluster.Coordinator) cluster.Stats                      = (*cluster.Coordinator).Stats
	_ func(*cluster.Coordinator) *snapshot.Store                    = (*cluster.Coordinator).Store
	_ func(cluster.WorkerConfig) (*cluster.Worker, error)           = cluster.NewWorker
	_ func(*cluster.Worker, context.Context) error                  = (*cluster.Worker).Run
	_ func(*cluster.Worker) cluster.WorkerStats                     = (*cluster.Worker).Stats
	_ func(http.Handler, httpx.Timeouts) *http.Server               = httpx.NewServer

	// serve: serve_fleet.
	_ func() *serve.Registry                                                          = serve.NewRegistry
	_ func(*serve.Registry, int, string) *serve.Manager                               = serve.NewManager
	_ func(*serve.Manager, serve.ServerOptions) *serve.Server                         = serve.NewServerOpts
	_ func(serve.ReplicatorConfig) (*serve.Replicator, error)                         = serve.NewReplicator
	_ func(*serve.Replicator, context.Context) error                                  = (*serve.Replicator).Run
	_ func(*serve.Registry, *serve.Model) error                                       = (*serve.Registry).Publish
	_ func(*serve.Registry, string) (*serve.Model, bool)                              = (*serve.Registry).Get
	_ func(*serve.Registry, string, []serve.Instance) (*serve.PredictResponse, error) = (*serve.Registry).Predict
)
