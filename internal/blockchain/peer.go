package blockchain

import (
	"fmt"
	"sync"

	"healthcloud/internal/hckrypto"
)

// Peer is one organization's member on a blockchain network: it endorses
// transactions it considers valid and maintains its own copy of the
// ledger from the ordered stream. The paper's networks have peers for
// "sender ..., receiver ..., healthcare provider ..., data protection
// service, audit service as well as other services" (§IV-B1).
type Peer struct {
	id  string
	key hckrypto.Signer

	// validate lets each peer apply its own business rules before
	// endorsing (smart-contract stand-in). Nil means endorse anything
	// well-formed.
	validate func(*Transaction) error

	mu     sync.RWMutex
	ledger *Ledger
}

// NewPeerWithScheme creates a peer whose endorsement identity uses the
// given signature scheme. Networks replaying chains endorsed under an
// older scheme pin it here; new networks take the default.
func NewPeerWithScheme(id string, scheme hckrypto.Scheme, validate func(*Transaction) error) (*Peer, error) {
	key, err := hckrypto.NewSigner(scheme)
	if err != nil {
		return nil, fmt.Errorf("blockchain: peer key: %w", err)
	}
	return &Peer{id: id, key: key, validate: validate, ledger: NewLedger()}, nil
}

// ID returns the peer's identity.
func (p *Peer) ID() string { return p.id }

// Scheme returns the signature scheme the peer endorses under.
func (p *Peer) Scheme() hckrypto.Scheme { return p.key.Scheme() }

// Verifier returns the peer's public endorsement-verification key.
func (p *Peer) Verifier() hckrypto.Verifier { return p.key.Verifier() }

// EndorseGroup validates every transaction in the batch against the
// peer's rules and signs a single GroupDigest covering all of them. This
// is the "endorse" phase of the lifecycle, and the only endorsement
// format: one signature amortizes endorsement cost across the whole
// batch while each transaction still passes the peer's validation rule
// individually. A lone transaction is a group of one.
func (p *Peer) EndorseGroup(txs []Transaction) (Endorsement, error) {
	if p.validate != nil {
		for i := range txs {
			if err := p.validate(&txs[i]); err != nil {
				return Endorsement{}, fmt.Errorf("%w: %s: %s: %v", ErrTxRejected, p.id, txs[i].ID, err)
			}
		}
	}
	sig, err := hckrypto.SignEnvelope(p.key, GroupDigest(txs))
	if err != nil {
		return Endorsement{}, fmt.Errorf("blockchain: endorsing group: %w", err)
	}
	return Endorsement{PeerID: p.id, Signature: sig}, nil
}

// Ledger returns the peer's view of the chain.
func (p *Peer) Ledger() *Ledger {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.ledger
}
