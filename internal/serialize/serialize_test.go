package serialize

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/portus-sys/portus/internal/index"
)

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Model:     "resnet50",
		Iteration: 8300,
		Tensors: []Blob{
			{
				Meta: index.TensorMeta{Name: "conv1.weight", DType: index.F32, Dims: []int64{64, 3, 7, 7}, Size: 16},
				Data: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
			},
			{
				Meta:    index.TensorMeta{Name: "fc.weight", DType: index.F16, Dims: []int64{1000, 2048}, Size: 4096000},
				Stamp:   0xabcdef,
				Virtual: true,
			},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	c := sampleCheckpoint()
	var buf bytes.Buffer
	if err := Encode(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, c)
	}
}

func TestEncodedSizeIsExact(t *testing.T) {
	c := sampleCheckpoint()
	var buf bytes.Buffer
	if err := Encode(&buf, c); err != nil {
		t.Fatal(err)
	}
	if got := c.EncodedSize(); got != int64(buf.Len()) {
		t.Fatalf("EncodedSize = %d, actual = %d", got, buf.Len())
	}
}

func TestPayloadBytes(t *testing.T) {
	c := sampleCheckpoint()
	if got := c.PayloadBytes(); got != 16+4096000 {
		t.Fatalf("PayloadBytes = %d", got)
	}
}

func TestEncodeRejectsShortPayload(t *testing.T) {
	c := &Checkpoint{
		Model: "m",
		Tensors: []Blob{{
			Meta: index.TensorMeta{Name: "t", DType: index.F32, Dims: []int64{4}, Size: 16},
			Data: []byte{1, 2}, // wrong length
		}},
	}
	if err := Encode(&bytes.Buffer{}, c); err == nil {
		t.Fatal("Encode accepted mismatched payload")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, in := range [][]byte{
		nil,
		[]byte("short"),
		[]byte("WRONGMAG followed by stuff"),
		append([]byte(magic), 0xff, 0xff), // absurd name length follows
	} {
		if _, err := Decode(bytes.NewReader(in)); !errors.Is(err, ErrBadContainer) {
			t.Fatalf("Decode(%q) err = %v, want ErrBadContainer", in, err)
		}
	}
}

func TestDecodeRejectsTruncatedPayload(t *testing.T) {
	c := sampleCheckpoint()
	c.Tensors = c.Tensors[:1] // materialized tensor only
	var buf bytes.Buffer
	if err := Encode(&buf, c); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-4]
	if _, err := Decode(bytes.NewReader(raw)); err == nil {
		t.Fatal("Decode accepted truncated payload")
	}
}

// Property: every well-formed checkpoint round-trips exactly.
func TestRoundTripProperty(t *testing.T) {
	type spec struct {
		Name    []byte
		Payload []byte
		Stamp   uint64
		Virtual bool
		Dims    uint8
	}
	prop := func(model []byte, iter uint64, specs []spec) bool {
		if len(model) > 256 || len(specs) > 32 {
			return true
		}
		c := &Checkpoint{Model: string(model), Iteration: iter}
		for _, s := range specs {
			if len(s.Name) > 128 {
				s.Name = s.Name[:128]
			}
			b := Blob{Virtual: s.Virtual, Stamp: 0}
			b.Meta.Name = string(s.Name)
			b.Meta.DType = index.F32
			ndims := int(s.Dims%4) + 1
			for d := 0; d < ndims; d++ {
				b.Meta.Dims = append(b.Meta.Dims, int64(d+1))
			}
			if s.Virtual {
				b.Stamp = s.Stamp
				b.Meta.Size = int64(len(s.Payload)) + 1
			} else {
				b.Data = append([]byte(nil), s.Payload...)
				b.Meta.Size = int64(len(s.Payload))
			}
			c.Tensors = append(c.Tensors, b)
		}
		var buf bytes.Buffer
		if err := Encode(&buf, c); err != nil {
			return false
		}
		if int64(buf.Len()) != c.EncodedSize() {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, c)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
