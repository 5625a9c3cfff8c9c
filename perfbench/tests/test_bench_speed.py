import signal

import speed


def test_scaled_is_relative_to_the_reference_kernel_time():
    ref = speed.REF_KERNEL_S
    assert speed.scaled(2.0, [ref] * 10) == 2.0
    assert abs(speed.scaled(2.0, [2 * ref] * 10) - 1.0) < 1e-12


def test_mean_follows_the_share_of_slow_samples_and_drops_descheduled_ones():
    fast, slow = 1e-4, 2e-4
    assert abs(speed.kernel_mean([fast] * 3 + [slow]) - 1.25e-4) < 1e-12
    assert abs(speed.kernel_mean([fast] * 9 + [50 * fast]) - fast) < 1e-12


def test_sampler_samples_while_busy_and_restores_the_handler():
    before = signal.getsignal(signal.SIGPROF)
    sampler = speed.Sampler(interval=0.005)
    sampler.start()
    while len(sampler.samples) < 3:
        speed.kernel()
    samples = sampler.stop()
    assert len(samples) >= 3 and all(s > 0 for s in samples)
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
