"""The content-addressed kernel-compilation cache and CompileOptions.

Covers key stability (same IR from different builders), option
permutations (every option field must separate cache entries), the
toolchain dimension, LRU bounding, the disk-persistence layer, the
rejection of the removed keyword form, and the Unroll enum coercions.
"""

from __future__ import annotations

import pytest

from repro.cudasim import (
    CompileOptions,
    Device,
    IRError,
    KernelBuilder,
    KernelCache,
    Toolchain,
    Unroll,
    compile_kernel,
    default_cache,
    kernel_fingerprint,
    lower_kernel,
    set_default_cache,
)


def make_kernel(name="k", mul=2.0):
    b = KernelBuilder(name, params=("x", "y", "n"))
    i = b.tmp("i")
    ax = b.tmp("ax")
    ay = b.tmp("ay")
    v = b.tmp("v")
    b.imad(i, b.sreg("ctaid"), b.sreg("ntid"), b.sreg("tid"))
    b.imad(ax, i, 4, b.param("x"))
    b.imad(ay, i, 4, b.param("y"))
    b.ld_global(v, ax)
    b.mad(v, v, mul, 0.0)
    b.st_global(ay, v)
    return b.build()


@pytest.fixture(autouse=True)
def fresh_default_cache():
    previous = set_default_cache(KernelCache())
    yield
    set_default_cache(previous)


class TestFingerprint:
    def test_structurally_identical_kernels_share_fingerprint(self):
        assert kernel_fingerprint(make_kernel()) == kernel_fingerprint(
            make_kernel()
        )

    def test_different_body_changes_fingerprint(self):
        assert kernel_fingerprint(make_kernel(mul=2.0)) != kernel_fingerprint(
            make_kernel(mul=3.0)
        )

    def test_name_is_part_of_identity(self):
        assert kernel_fingerprint(make_kernel("a")) != kernel_fingerprint(
            make_kernel("b")
        )


class TestCompileOptions:
    def test_frozen(self):
        opts = CompileOptions()
        with pytest.raises(AttributeError):
            opts.licm = True

    def test_unroll_spellings_normalize(self):
        assert CompileOptions(unroll=Unroll.FULL) == CompileOptions(
            unroll="full"
        )
        assert hash(CompileOptions(unroll=Unroll.FULL)) == hash(
            CompileOptions(unroll="full")
        )

    def test_bad_unroll_rejected(self):
        with pytest.raises(IRError):
            CompileOptions(unroll="fully")
        with pytest.raises(IRError):
            CompileOptions(unroll=0)
        with pytest.raises(IRError):
            CompileOptions(unroll=True)

    def test_replace(self):
        opts = CompileOptions(licm=True)
        assert opts.replace(unroll=4) == CompileOptions(unroll=4, licm=True)


class TestCacheBehavior:
    def test_hit_on_identical_options(self):
        cache = KernelCache()
        k = make_kernel()
        a = cache.get_or_compile(k, CompileOptions(), lower_kernel)
        b = cache.get_or_compile(k, CompileOptions(), lower_kernel)
        assert a is b
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    @pytest.mark.parametrize(
        "changed",
        [
            {"unroll": 4},
            {"unroll": "full"},
            {"licm": True},
            {"dce": False},
            {"max_registers": 32},
        ],
    )
    def test_each_option_field_separates_entries(self, changed):
        cache = KernelCache()
        k = make_kernel()
        base = cache.get_or_compile(k, CompileOptions(), lower_kernel)
        other = cache.get_or_compile(
            k, CompileOptions(**changed), lower_kernel
        )
        assert base is not other
        assert cache.stats.misses == 2

    def test_toolchain_separates_entries(self):
        cache = KernelCache()
        k = make_kernel()
        a = cache.get_or_compile(
            k, CompileOptions(), lower_kernel, toolchain=Toolchain.CUDA_1_0
        )
        b = cache.get_or_compile(
            k, CompileOptions(), lower_kernel, toolchain=Toolchain.CUDA_1_1
        )
        assert a is not b

    def test_lru_eviction(self):
        cache = KernelCache(max_entries=2)
        kernels = [make_kernel(f"k{i}") for i in range(3)]
        for k in kernels:
            cache.get_or_compile(k, CompileOptions(), lower_kernel)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # k0 was evicted: compiling it again is a miss.
        cache.get_or_compile(kernels[0], CompileOptions(), lower_kernel)
        assert cache.stats.misses == 4

    def test_clear_resets(self):
        cache = KernelCache()
        cache.get_or_compile(make_kernel(), CompileOptions(), lower_kernel)
        cache.clear()
        assert len(cache) == 0 and cache.stats.lookups == 0

    def test_disk_persistence_across_cache_instances(self, tmp_path):
        k = make_kernel()
        first = KernelCache(persist_dir=str(tmp_path))
        first.get_or_compile(k, CompileOptions(), lower_kernel)
        second = KernelCache(persist_dir=str(tmp_path))
        lk = second.get_or_compile(k, CompileOptions(), lower_kernel)
        assert second.stats.disk_hits == 1 and second.stats.misses == 0
        assert lk.reg_count >= 1

    def test_corrupt_disk_entry_falls_back_to_compile(self, tmp_path):
        k = make_kernel()
        cache = KernelCache(persist_dir=str(tmp_path))
        key = cache.key(k, CompileOptions(), None)
        (tmp_path / f"{key}.lk").write_bytes(b"not a pickle")
        lk = cache.get_or_compile(k, CompileOptions(), lower_kernel)
        assert cache.stats.misses == 1
        assert lk.reg_count >= 1


class TestCompileKernelFrontend:
    def test_default_cache_shared_across_calls(self):
        k = make_kernel()
        assert compile_kernel(k) is compile_kernel(k)
        assert default_cache().stats.hits == 1

    def test_cache_none_bypasses(self):
        k = make_kernel()
        a = compile_kernel(k, cache=None)
        b = compile_kernel(k, cache=None)
        assert a is not b
        assert default_cache().stats.lookups == 0

    def test_device_compile_keys_by_toolchain(self):
        k = make_kernel()
        d10 = Device(toolchain=Toolchain.CUDA_1_0)
        d22 = Device(toolchain=Toolchain.CUDA_2_2)
        assert d10.compile(k) is d10.compile(k)
        assert d10.compile(k) is not d22.compile(k)

    def test_options_and_legacy_kwargs_conflict(self):
        # Options travel only in CompileOptions; the keyword form is gone.
        with pytest.raises(TypeError):
            compile_kernel(make_kernel(), unroll=4)
        with pytest.raises(TypeError):
            compile_kernel(make_kernel(), CompileOptions(), licm=True)
