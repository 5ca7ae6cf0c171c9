"""Tests for the Module system and core layers."""

import numpy as np
import pytest

from repro import nn
from repro.nn.module import ModuleList, Parameter
from repro.tensor import Tensor

RNG = np.random.default_rng(0)


class TestModuleSystem:
    def _toy(self):
        class Toy(nn.Module):
            def __init__(self):
                super().__init__()
                self.lin = nn.Linear(4, 3, np.random.default_rng(0))
                self.ln = nn.LayerNorm(3)

            def forward(self, x):
                return self.ln(self.lin(x))

        return Toy()

    def test_named_parameters_paths(self):
        toy = self._toy()
        names = {n for n, _ in toy.named_parameters()}
        assert names == {"lin.weight", "lin.bias", "ln.weight", "ln.bias"}

    def test_num_parameters(self):
        toy = self._toy()
        assert toy.num_parameters() == 4 * 3 + 3 + 3 + 3

    def test_zero_grad_clears(self):
        toy = self._toy()
        out = toy(Tensor(RNG.normal(size=(2, 4)).astype(np.float32)))
        out.sum().backward()
        assert any(p.grad is not None for p in toy.parameters())
        toy.zero_grad()
        assert all(p.grad is None for p in toy.parameters())

    def test_state_dict_roundtrip(self):
        toy = self._toy()
        state = toy.state_dict()
        toy2 = self._toy()
        for p in toy2.parameters():
            p.data += 1.0
        toy2.load_state_dict(state)
        for (n1, p1), (n2, p2) in zip(toy.named_parameters(), toy2.named_parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_load_state_dict_strict_mismatch(self):
        toy = self._toy()
        state = toy.state_dict()
        del state["lin.bias"]
        with pytest.raises(KeyError):
            toy.load_state_dict(state)
        toy.load_state_dict(state, strict=False)  # ok non-strict

    def test_load_state_dict_shape_mismatch(self):
        toy = self._toy()
        state = toy.state_dict()
        state["lin.weight"] = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            toy.load_state_dict(state)

    def test_load_state_dict_never_aliases_the_callers_arrays(self):
        """One copy per array: the loaded parameter shares no memory with
        the state it came from, whether or not the dtype had to change."""
        toy = self._toy()
        state = {name: np.full_like(arr, 0.5, dtype=dtype)
                 for (name, arr), dtype in zip(
                     toy.state_dict().items(),
                     (np.float32, np.float64, np.float32, np.float16))}
        toy.load_state_dict(state)
        for name, p in toy.named_parameters():
            assert not np.shares_memory(p.data, state[name]), name
            assert p.data.flags.owndata and p.data.flags.writeable
            state[name][...] = -1.0  # the caller scribbles on its arrays
            assert (p.data == 0.5).all(), name

    def test_load_state_dict_coerces_dtype(self):
        toy = self._toy()
        state = {name: arr.astype(np.float64) + 0.25
                 for name, arr in toy.state_dict().items()}
        toy.load_state_dict(state)
        for name, p in toy.named_parameters():
            assert p.data.dtype == np.float32, name
            assert np.array_equal(p.data, state[name].astype(np.float32))

    def test_train_eval_mode_recursive(self):
        toy = self._toy()
        toy.eval()
        assert all(not m.training for m in toy.modules())
        toy.train()
        assert all(m.training for m in toy.modules())

    def test_module_list_registration(self):
        ml = ModuleList([nn.LayerNorm(2), nn.LayerNorm(2)])
        assert len(ml) == 2
        assert len(list(ml.named_parameters())) == 4
        assert ml[0] is list(iter(ml))[0]


class TestLayers:
    def test_linear_shapes_and_values(self):
        lin = nn.Linear(4, 3, np.random.default_rng(0))
        x = RNG.normal(size=(2, 5, 4)).astype(np.float32)
        out = lin(Tensor(x))
        assert out.shape == (2, 5, 3)
        np.testing.assert_allclose(out.data, x @ lin.weight.data + lin.bias.data, rtol=1e-5)

    def test_linear_no_bias(self):
        lin = nn.Linear(4, 3, np.random.default_rng(0), bias=False)
        assert lin.bias is None
        assert len(lin.parameters()) == 1

    def test_embedding_lookup(self):
        emb = nn.Embedding(10, 6, np.random.default_rng(0))
        ids = np.array([[0, 3], [9, 3]])
        out = emb(ids)
        assert out.shape == (2, 2, 6)
        np.testing.assert_array_equal(out.data[0, 1], out.data[1, 1])

    def test_dropout_validation(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.0, np.random.default_rng(0))

    def test_layernorm_normalizes(self):
        ln = nn.LayerNorm(8)
        x = Tensor(RNG.normal(size=(3, 8)).astype(np.float32) * 5 + 2)
        out = ln(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 0, atol=1e-5)


class TestAttention:
    def test_output_shape(self):
        attn = nn.MultiHeadAttention(16, 4, np.random.default_rng(0))
        x = Tensor(RNG.normal(size=(2, 5, 16)).astype(np.float32))
        assert attn(x).shape == (2, 5, 16)

    def test_heads_must_divide(self):
        with pytest.raises(ValueError):
            nn.MultiHeadAttention(10, 3, np.random.default_rng(0))

    def test_padding_mask_blocks_attention(self):
        """Masked key positions must not influence outputs of other queries."""
        attn = nn.MultiHeadAttention(8, 2, np.random.default_rng(0))
        x1 = RNG.normal(size=(1, 4, 8)).astype(np.float32)
        x2 = x1.copy()
        x2[0, 3] = 99.0  # change only the padded position
        mask = np.zeros((1, 1, 1, 4), dtype=bool)
        mask[..., 3] = True
        out1 = attn(Tensor(x1), mask).data
        out2 = attn(Tensor(x2), mask).data
        # Positions 0-2 attend only to unmasked keys, so they match.
        np.testing.assert_allclose(out1[0, :3], out2[0, :3], atol=1e-4)

    def test_gradients_flow_to_all_params(self):
        attn = nn.MultiHeadAttention(8, 2, np.random.default_rng(0))
        x = Tensor(RNG.normal(size=(2, 3, 8)).astype(np.float32), requires_grad=True)
        attn(x).sum().backward()
        for name, p in attn.named_parameters():
            assert p.grad is not None, name
        assert x.grad is not None


class TestTransformerAndBert:
    def _config(self, **kw):
        defaults = dict(vocab_size=50, max_seq_len=16, hidden=16, num_layers=2, num_heads=2)
        defaults.update(kw)
        return nn.TransformerConfig(**defaults)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            nn.TransformerConfig(hidden=10, num_heads=3)

    def test_config_ffn_default(self):
        cfg = self._config()
        assert cfg.ffn_hidden == 4 * cfg.hidden

    def test_bert_large_dims(self):
        cfg = nn.TransformerConfig.bert_large()
        assert (cfg.num_layers, cfg.hidden, cfg.num_heads) == (24, 1024, 16)

    def test_encoder_forward_shape(self):
        cfg = self._config()
        enc = nn.TransformerEncoder(cfg, np.random.default_rng(0))
        x = Tensor(RNG.normal(size=(2, 8, 16)).astype(np.float32))
        assert enc(x).shape == (2, 8, 16)

    def test_encoder_layer_hooks_called_in_order(self):
        cfg = self._config()
        enc = nn.TransformerEncoder(cfg, np.random.default_rng(0))
        calls = []
        enc.layer_hooks[0] = lambda t: (calls.append(0), t)[1]
        enc.layer_hooks[1] = lambda t: (calls.append(1), t)[1]
        enc(Tensor(RNG.normal(size=(1, 4, 16)).astype(np.float32)))
        assert calls == [0, 1]

    def test_bert_classifier_forward_and_loss(self):
        cfg = self._config(num_classes=3)
        model = nn.BertForSequenceClassification(cfg)
        ids = RNG.integers(0, 50, size=(4, 8))
        logits = model(ids)
        assert logits.shape == (4, 3)
        loss = model.loss(ids, np.array([0, 1, 2, 0]))
        assert loss.size == 1 and np.isfinite(loss.data)

    def test_bert_regression_head(self):
        cfg = self._config()
        model = nn.BertForSequenceClassification(cfg, regression=True)
        ids = RNG.integers(0, 50, size=(4, 8))
        preds = model.predict(ids)
        assert preds.shape == (4,)
        loss = model.loss(ids, RNG.normal(size=4))
        assert np.isfinite(loss.data)

    def test_bert_seq_len_guard(self):
        cfg = self._config()
        model = nn.BertModel(cfg)
        with pytest.raises(ValueError):
            model(RNG.integers(0, 50, size=(1, 32)))

    def test_bert_pretraining_mlm_loss(self):
        cfg = self._config()
        model = nn.BertForPreTraining(cfg)
        ids = RNG.integers(0, 50, size=(2, 8))
        labels = np.full((2, 8), model.IGNORE_INDEX)
        labels[0, 2] = 7
        labels[1, 5] = 3
        loss = model.loss(ids, labels)
        assert np.isfinite(loss.data)
        loss.backward()
        assert model.bert.token_embedding.weight.grad is not None

    def test_attention_mask_plumbs_through_bert(self):
        cfg = self._config()
        model = nn.BertModel(cfg)
        ids = RNG.integers(0, 50, size=(2, 8))
        am = np.ones((2, 8), dtype=np.int64)
        am[:, 6:] = 0
        out = model(ids, am)
        assert out.shape == (2, 8, 16)

    def test_deterministic_given_seed(self):
        cfg = self._config(seed=7)
        ids = RNG.integers(0, 50, size=(2, 8))
        m1 = nn.BertForSequenceClassification(cfg)
        m2 = nn.BertForSequenceClassification(cfg)
        np.testing.assert_array_equal(m1(ids).data, m2(ids).data)
