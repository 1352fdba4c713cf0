package machine

import "repro/internal/fabric"

// CostCache is a shim, not a cache: Model.Cost is a table read, cheaper than
// the memoized lookup this type once was. It stays only because the frozen
// benchmark/ module still calls NewCostCache and Cost (ROADMAP 19).
type CostCache struct{ m *Model }

// NewCostCache wraps the model.
func NewCostCache(m *Model) *CostCache { return &CostCache{m: m} }

// Cost returns m.Cost(lib, api, path, bytes).
func (c *CostCache) Cost(lib Lib, api API, path fabric.Path, bytes int64) fabric.LinkCost {
	return c.m.Cost(lib, api, path, bytes)
}
